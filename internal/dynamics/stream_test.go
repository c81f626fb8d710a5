package dynamics

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"anysim/internal/geo"
	"anysim/internal/topo"
)

// TestDecoderMixedForms decodes a stream mixing DSL lines, JSON lines,
// comments, and a scenario header.
func TestDecoderMixedForms(t *testing.T) {
	text := `scenario mixed
# a comment
at 1 site-down fra

{"at":2,"kind":"site-up","site":"fra"}
{"kind":"flash-begin","area":"EMEA","factor":2.5}
at 3 link-down 10 20
{"at":4,"kind":"ixp-down","ixp":"ix-fra"}
{"at":5,"kind":"flash-end","area":"EMEA"}
`
	want := []Event{
		{At: 1, Kind: SiteDown, Site: "fra"},
		{At: 2, Kind: SiteUp, Site: "fra"},
		{Kind: FlashBegin, Area: geo.EMEA, Factor: 2.5},
		{At: 3, Kind: LinkDown, A: 10, B: 20},
		{At: 4, Kind: IXPDown, IXP: "ix-fra"},
		{At: 5, Kind: FlashEnd, Area: geo.EMEA},
	}
	d := NewDecoder(strings.NewReader(text))
	for i, w := range want {
		ev, err := d.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != w {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last event: %v, want io.EOF", err)
	}
	if d.Name() != "mixed" {
		t.Errorf("Name() = %q, want mixed", d.Name())
	}
}

// TestDecoderErrors checks that malformed lines fail with the right line
// number, as a *DecodeError.
func TestDecoderErrors(t *testing.T) {
	cases := []struct {
		text string
		line int
		want string
	}{
		{"at 1 site-down\n", 1, "at <tick>"},
		{"at 1 site-down a b\n", 1, "site ID"},
		{"# ok\nat x site-down fra\n", 2, "bad tick"},
		{"at 1 warp fra\n", 1, "unknown event kind"},
		{"bogus directive\n", 1, "unknown directive"},
		{"scenario a\nscenario b\n", 2, "duplicate scenario"},
		{"scenario\n", 1, "scenario <name>"},
		{"at 1 link-down 5\n", 1, "two ASNs"},
		{"at 1 link-down 0 7\n", 1, "two ASNs"},
		{"at 1 flash-begin EMEA -2\n", 1, "bad factor"},
		{"at 1 flash-begin Mars 2\n", 1, "unknown area"},
		{"{bad json\n", 1, "bad event JSON"},
		{"\n\n{\"kind\":\"site-down\"}\n", 3, "site ID"},
		{`{"kind":"site-down","site":"fra","factor":2}` + "\n", 1, "does not use"},
		{`{"kind":"site-down","site":"fra","bogus":1}` + "\n", 1, "unknown field"},
		{`{"kind":"warp","site":"fra"}` + "\n", 1, "unknown event kind"},
		{`{"at":-1,"kind":"site-down","site":"fra"}` + "\n", 1, "bad tick"},
		{`{"kind":"site-down","site":"fra"} extra` + "\n", 1, "trailing data"},
	}
	for _, c := range cases {
		d := NewDecoder(strings.NewReader(c.text))
		var err error
		for err == nil {
			_, err = d.Next()
		}
		if err == io.EOF {
			t.Errorf("decode %q: no error, want %q", c.text, c.want)
			continue
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("decode %q: error %v is not a *DecodeError", c.text, err)
			continue
		}
		if de.Line != c.line {
			t.Errorf("decode %q: line %d, want %d", c.text, de.Line, c.line)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("decode %q: error %q missing %q", c.text, err, c.want)
		}
	}
}

// TestEventJSONRoundTrip marshals every event kind and decodes it back.
func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{At: 1, Kind: SiteDown, Site: "fra"},
		{At: 2, Kind: SiteUp, Site: "fra"},
		{At: 3, Kind: Reannounce, Site: "lhr"},
		{At: 4, Kind: LinkDown, A: 7, B: 9},
		{At: 5, Kind: LinkUp, A: 7, B: 9},
		{At: 6, Kind: IXPDown, IXP: "ix-ams"},
		{At: 7, Kind: IXPUp, IXP: "ix-ams"},
		{At: 8, Kind: FlashBegin, Area: geo.APAC, Factor: 3},
		{At: 9, Kind: FlashEnd, Area: geo.APAC},
		{Kind: SiteDown, Site: "now"}, // at omitted: "apply now"
	}
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal %+v: %v", ev, err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != ev {
			t.Errorf("round trip %s = %+v, want %+v", data, back, ev)
		}
	}
	// An invalid event refuses to marshal rather than emitting garbage.
	if _, err := json.Marshal(Event{Kind: FlashBegin, Area: geo.EMEA}); err == nil {
		t.Error("marshal of factorless flash-begin succeeded")
	}
}

// TestParseJSONLines checks that scenario files may mix DSL and JSON lines.
func TestParseJSONLines(t *testing.T) {
	sc, err := ParseString("scenario j\nat 1 site-down fra\n{\"at\":2,\"kind\":\"site-up\",\"site\":\"fra\"}\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 || sc.Events[1] != (Event{At: 2, Kind: SiteUp, Site: "fra"}) {
		t.Errorf("parsed events = %+v", sc.Events)
	}
}

// FuzzDecodeEventLine feeds arbitrary lines to the decoder and checks the
// invariant: whatever decodes successfully must survive a JSON round trip
// and a DSL round trip unchanged.
func FuzzDecodeEventLine(f *testing.F) {
	f.Add("at 1 site-down fra")
	f.Add(`{"at":2,"kind":"link-down","a":3,"b":4}`)
	f.Add(`{"kind":"flash-begin","area":"LatAm","factor":0.5}`)
	f.Add("at 0 flash-end NA")
	f.Add("scenario x")
	f.Add("# comment")
	f.Add(`{"kind":"ixp-down","ixp":"ix"}`)
	f.Fuzz(func(t *testing.T, line string) {
		d := NewDecoder(strings.NewReader(line))
		ev, err := d.Next()
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("decoded event %+v does not marshal: %v", ev, err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("marshalled event %s does not decode: %v", data, err)
		}
		if back != ev {
			t.Fatalf("JSON round trip %s = %+v, want %+v", data, back, ev)
		}
		// The DSL form must decode to the same event, with the decoded
		// tick normalised (ev.String always writes the tick).
		d2 := NewDecoder(strings.NewReader(ev.String()))
		back2, err := d2.Next()
		if err != nil {
			t.Fatalf("DSL round trip of %q: %v", ev.String(), err)
		}
		if back2 != ev {
			t.Fatalf("DSL round trip %q = %+v, want %+v", ev.String(), back2, ev)
		}
	})
}

var _ = topo.ASN(0) // keep the import when cases above change

// TestDecoderDropsCutLine: a stream cut off by a read error yields its
// complete lines, then the read error (wrapped), never the truncated last
// line — "at 3 site-down fr" must not be applied as a withdrawal of "fr".
// A stream that simply ends without a final newline still decodes its last
// line.
func TestDecoderDropsCutLine(t *testing.T) {
	cut := errors.New("body too large")
	body := "at 1 site-down fra\nat 2 site-up fra\nat 3 site-down fr"
	d := NewDecoder(io.MultiReader(strings.NewReader(body), iotest.ErrReader(cut)))
	for i := 0; i < 2; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if ev, err := d.Next(); !errors.Is(err, cut) {
		t.Fatalf("after the cut: event %+v, err %v; want the read error", ev, err)
	}

	d = NewDecoder(strings.NewReader(body))
	var last Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		last = ev
	}
	if last.At != 3 || last.Site != "fr" {
		t.Fatalf("last event of an uncut stream = %+v, want at 3 site-down fr", last)
	}
}
