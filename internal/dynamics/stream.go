package dynamics

// Streaming event decoding. Scenario files and the server's live ingest
// paths (stdin JSONL, HTTP POST /events) share one line-oriented decoder:
// every non-blank, non-comment line is either a DSL event
// ("at <tick> <kind> <args>", exactly what scenario files contain) or a
// JSON object ({"at":3,"kind":"site-down","site":"fra"}), one event per
// line. Decode errors always carry the 1-based line number, so a rejected
// ingest batch can point at the offending line and `anysim serve` can exit
// with a decode-specific code.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"anysim/internal/geo"
	"anysim/internal/topo"
)

// DecodeError is a malformed event line, located by its 1-based line
// number within the decoded stream.
type DecodeError struct {
	Line int
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("dynamics: line %d: %v", e.Line, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Decoder reads events from a line-oriented stream, one event per line in
// either DSL or JSON form. Blank lines and # comments are skipped. A
// `scenario <name>` directive names the stream (see Name) and yields no
// event. Decoding is strict: unknown directives, unknown JSON fields, and
// kind/argument mismatches are *DecodeError values carrying the line.
type Decoder struct {
	s    *bufio.Scanner
	r    errReader
	line int
	name string
}

// NewDecoder returns a decoder over r. A stream cut off by a read error
// (a request body over the server's size limit, a dropped connection)
// yields its complete lines and then the error, never its unterminated
// last line: a truncated event is not an event.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{r: errReader{r: r}}
	d.s = bufio.NewScanner(&d.r)
	d.s.Split(d.splitLines)
	return d
}

// errReader remembers the first read error other than io.EOF.
type errReader struct {
	r   io.Reader
	err error
}

func (e *errReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// splitLines is bufio.ScanLines, except that after a read error the
// unterminated remainder is dropped and the error returned instead.
func (d *Decoder) splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if atEOF && d.r.err != nil && bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, d.r.err
	}
	return bufio.ScanLines(data, atEOF)
}

// Line returns the line number of the most recently decoded line.
func (d *Decoder) Line() int { return d.line }

// Name returns the stream's `scenario <name>` header value, if one has
// been read.
func (d *Decoder) Name() string { return d.name }

// errAt wraps an error with the decoder's current line.
func (d *Decoder) errAt(err error) error {
	return &DecodeError{Line: d.line, Err: err}
}

// Next returns the next event in the stream, or io.EOF when the stream is
// exhausted.
func (d *Decoder) Next() (Event, error) {
	for d.s.Scan() {
		d.line++
		line := strings.TrimSpace(d.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line[0] == '{' {
			ev, err := decodeJSONEvent([]byte(line))
			if err != nil {
				return Event{}, d.errAt(err)
			}
			return ev, nil
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "scenario":
			if len(fields) != 2 {
				return Event{}, d.errAt(errors.New("want `scenario <name>`"))
			}
			if d.name != "" {
				return Event{}, d.errAt(errors.New("duplicate scenario header"))
			}
			d.name = fields[1]
		case "at":
			ev, err := parseEvent(fields)
			if err != nil {
				return Event{}, d.errAt(err)
			}
			return ev, nil
		default:
			return Event{}, d.errAt(fmt.Errorf("unknown directive %q", fields[0]))
		}
	}
	if err := d.s.Err(); err != nil {
		return Event{}, fmt.Errorf("dynamics: reading events: %w", err)
	}
	return Event{}, io.EOF
}

// eventJSON is the wire form of an Event: the kind name plus exactly the
// fields the kind uses, all lower-case, `at` optional (0 means "now" on a
// live ingest path).
type eventJSON struct {
	At     int     `json:"at,omitempty"`
	Kind   string  `json:"kind"`
	Site   string  `json:"site,omitempty"`
	A      uint32  `json:"a,omitempty"`
	B      uint32  `json:"b,omitempty"`
	IXP    string  `json:"ixp,omitempty"`
	Area   string  `json:"area,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// MarshalJSON encodes the event in its wire form. Only the fields the
// event's kind uses are emitted, so Marshal/Unmarshal round-trip exactly.
func (ev Event) MarshalJSON() ([]byte, error) {
	if err := checkEvent(ev); err != nil {
		return nil, fmt.Errorf("dynamics: marshal event: %w", err)
	}
	j := eventJSON{At: ev.At, Kind: ev.Kind.String()}
	switch ev.Kind {
	case LinkDown, LinkUp:
		j.A, j.B = uint32(ev.A), uint32(ev.B)
	case IXPDown, IXPUp:
		j.IXP = ev.IXP
	case FlashBegin:
		j.Area, j.Factor = ev.Area.String(), ev.Factor
	case FlashEnd:
		j.Area = ev.Area.String()
	default:
		j.Site = ev.Site
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes an event from its wire form, strictly: unknown
// fields, unknown kinds, and fields a kind does not use are all errors.
func (ev *Event) UnmarshalJSON(data []byte) error {
	e, err := decodeJSONEvent(data)
	if err != nil {
		return fmt.Errorf("dynamics: %w", err)
	}
	*ev = e
	return nil
}

// decodeJSONEvent decodes one JSON event line.
func decodeJSONEvent(data []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j eventJSON
	if err := dec.Decode(&j); err != nil {
		return Event{}, fmt.Errorf("bad event JSON: %w", err)
	}
	if dec.More() {
		return Event{}, errors.New("trailing data after event object")
	}
	kind, ok := kindByName[j.Kind]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", j.Kind)
	}
	ev := Event{At: j.At, Kind: kind, Site: j.Site, A: topo.ASN(j.A), B: topo.ASN(j.B), IXP: j.IXP, Factor: j.Factor}
	if j.Area != "" {
		area, err := geo.ParseArea(j.Area)
		if err != nil {
			return Event{}, err
		}
		ev.Area = area
	}
	if err := checkEvent(ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// checkEvent validates that an event carries exactly the fields its kind
// uses — shared by the DSL parser, the JSON decoder, and MarshalJSON.
func checkEvent(ev Event) error {
	if ev.At < 0 {
		return fmt.Errorf("bad tick %d", ev.At)
	}
	// want is the event rebuilt from only the kind's own fields; any
	// difference from ev means a stray field was set.
	want := Event{At: ev.At, Kind: ev.Kind}
	switch ev.Kind {
	case LinkDown, LinkUp:
		if ev.A == 0 || ev.B == 0 {
			return fmt.Errorf("%s wants two ASNs", ev.Kind)
		}
		want.A, want.B = ev.A, ev.B
	case IXPDown, IXPUp:
		if !validToken(ev.IXP) {
			return fmt.Errorf("%s wants one IXP ID", ev.Kind)
		}
		want.IXP = ev.IXP
	case FlashBegin:
		if ev.Area == geo.AreaUnknown {
			return fmt.Errorf("%s wants an area", ev.Kind)
		}
		if ev.Factor <= 0 {
			return fmt.Errorf("%s: bad factor %g", ev.Kind, ev.Factor)
		}
		want.Area, want.Factor = ev.Area, ev.Factor
	case FlashEnd:
		if ev.Area == geo.AreaUnknown {
			return fmt.Errorf("%s wants one area", ev.Kind)
		}
		want.Area = ev.Area
	case SiteDown, SiteUp, Reannounce:
		if !validToken(ev.Site) {
			return fmt.Errorf("%s wants one site ID", ev.Kind)
		}
		want.Site = ev.Site
	default:
		return fmt.Errorf("unknown event kind %v", ev.Kind)
	}
	if want != ev {
		return fmt.Errorf("%s: event sets fields the kind does not use", ev.Kind)
	}
	return nil
}

// validToken reports whether an ID is a single non-empty DSL token — no
// whitespace or control characters, so every event's String() form
// re-parses to the same event.
func validToken(s string) bool {
	if s == "" || !utf8.ValidString(s) {
		return false
	}
	return !strings.ContainsFunc(s, func(r rune) bool {
		return unicode.IsSpace(r) || r < 0x20 || r == 0x7f
	})
}
