package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"anysim/internal/worldgen"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
		tail  float64
	}{
		{1000, "p99", 990}, // exactly 10 samples beyond p99
		{999, "p90", 900},  // 9 beyond p99: p99 is omitted
		{10000, "p99.9", 9990},
		{100, "p90", 90}, // 10 beyond p90
		{99, "max", 99},  // 9 beyond p90: no percentile qualifies
		{1, "max", 1},
	} {
		d := summarize(seq(c.n))
		if d.N != c.n || d.label() != c.label || d.tailOrMax() != c.tail {
			t.Errorf("n=%d: got %s=%v (N=%d), want %s=%v", c.n, d.label(), d.tailOrMax(), d.N, c.label, c.tail)
		}
	}
	if d := summarize([]float64{3, 1, 2, 4}); d.P50 != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", d.P50)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNamesMatchBenchmarkJSON holds the printed vocabulary equal to the
// declared one: workloads, metric names and units, in the name grammar.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchFile(t)
	var declared []string
	for _, w := range f.Workloads {
		declared = append(declared, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", w.Name)
		}
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(declared), len(workloads))
	}
	check := func(kind string, specs []metricSpec, names, units []string) {
		if len(specs) != len(names) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(specs), len(names))
			return
		}
		for i, s := range specs {
			if s.Name != names[i] || s.Unit != units[i] {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json declares %s (%s)", kind, i, s.Name, s.Unit, names[i], units[i])
			}
			if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: %q (%q) breaks the name or unit grammar", kind, s.Name, s.Unit)
			}
		}
	}
	var n, u []string
	for _, m := range f.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range f.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
	for _, name := range append(declared, n...) {
		if !nameRE.MatchString(name) {
			t.Errorf("%q breaks the name grammar", name)
		}
	}
}

// TestEmitPrintsDeclaredNames runs the result printer over every metric and
// checks each printed name is declared, and that it refuses a partial or
// non-finite result.
func TestEmitPrintsDeclaredNames(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		rep := newReport()
		rep.op(3, 0)
		for i, s := range specs {
			rep.set(s.Name, float64(i)+0.5)
		}
		var out bytes.Buffer
		if err := rep.emit(&out, specs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(specs) {
			t.Errorf("result = %+v", res)
		}
		declared := map[string]bool{}
		for _, s := range specs {
			declared[s.Name] = true
		}
		for name := range res.Metrics {
			if !declared[name] {
				t.Errorf("printed undeclared metric %s", name)
			}
		}
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) > 2 && f[1] == "metric" && !declared[f[2]] {
				t.Errorf("printed undeclared metric line %q", l)
			}
		}
		rep.set(specs[0].Name, math.NaN())
		if err := rep.emit(&bytes.Buffer{}, specs); err == nil {
			t.Error("emit accepted a NaN metric")
		}
		delete(rep.vals, specs[0].Name)
		if err := rep.emit(&bytes.Buffer{}, specs); err == nil {
			t.Error("emit accepted a missing metric")
		}
	}
}

// TestInjected4xxIsAFailure serves a 4xx and checks it counts as a failed
// operation and turns the result incorrect.
func TestInjected4xxIsAFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such event", http.StatusUnprocessableEntity)
	}))
	defer ts.Close()
	r := &run{rep: newReport()}
	code, _, err := do(newClient(), "POST", ts.URL+"/events", "at 1 site-down nowhere\n")
	if r.check("POST /events", code, err) {
		t.Error("a 422 answer passed the check")
	}
	code, _, err = do(newClient(), "GET", ts.URL+"/load", "")
	_ = r.check("GET /load", code, err)
	if r.rep.attempted != 2 || r.rep.failed != 2 {
		t.Errorf("attempted=%d failed=%d, want 2 and 2", r.rep.attempted, r.rep.failed)
	}
	var out bytes.Buffer
	r.rep.set("x", 1)
	if err := r.rep.emit(&out, []metricSpec{{"x", "s"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result with failures is not marked incorrect:\n%s", out.String())
	}
}

// TestWatchGapIsAFailure feeds the /watch reader a stream that skips a seq.
func TestWatchGapIsAFailure(t *testing.T) {
	stream := strings.Join([]string{
		`event: state`, `data: {"kind":"hello","seq":1}`, ``,
		`event: state`, `data: {"kind":"ingest","seq":2}`, ``,
		`event: state`, `data: {"kind":"alert","seq":2}`, ``,
		`event: state`, `data: {"kind":"ingest","seq":4}`, ``,
		`event: state`, `data: {"kind":"advance","seq":5}`, ``,
	}, "\n")
	var fl frameLog
	if err := fl.read(strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	r := &run{rep: newReport()}
	r.countWatch(&fl)
	if r.rep.attempted != 3 || r.rep.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 3 frames after hello with 1 missing", r.rep.attempted, r.rep.failed)
	}
	if at, ok := fl.firstAtOrAfter(3); !ok || !at.Equal(fl.at[2]) {
		t.Error("seq 3 should be reached by the frame carrying seq 4")
	}
}

// TestPerturbedBodyIsAFailure changes one value of a served body: the
// digests must differ and the comparison must fail, while key order and
// whitespace must not matter.
func TestPerturbedBodyIsAFailure(t *testing.T) {
	body := `{"seq":3,"tick":11,"bucket":3,"max_utilization":0.5,"unserved":0,"sites":[{"site":"fra","city":"FRA","tier":"T1","capacity":10,"demand":5,"utilization":0.5,"groups":7}]}`
	reordered := `{"tick":11, "seq":3, "bucket":3, "unserved":0, "max_utilization":0.5, "sites":[{"groups":7,"site":"fra","city":"FRA","tier":"T1","capacity":10,"demand":5,"utilization":0.5}], "added":true}`
	perturbed := strings.Replace(body, `"demand":5`, `"demand":5.000001`, 1)
	want, err := loadBodyDigest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	same, _ := loadBodyDigest([]byte(reordered))
	bad, _ := loadBodyDigest([]byte(perturbed))
	if same != want {
		t.Error("key order, whitespace or an added field changed the /load digest")
	}
	if bad == want {
		t.Fatal("a perturbed /load body kept its digest")
	}
	r := &run{rep: newReport()}
	r.compareDigests("replay", digests{Load: bad, Catchment: "c", Timeseries: "t"}, digests{Load: want, Catchment: "c", Timeseries: "t"})
	if r.rep.attempted != 3 || r.rep.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 3 and 1", r.rep.attempted, r.rep.failed)
	}
	c1, _ := canonical([]byte(`{"a":[1,2.5,"+Inf"],"b":null}`))
	c2, _ := canonical([]byte(`{ "b" : null , "a" : [1, 2.50, "+Inf"] }`))
	c3, _ := canonical([]byte(`{"a":[1,2.5,"-Inf"],"b":null}`))
	if c1 != c2 || c1 == c3 {
		t.Errorf("canonical digests: %s %s %s", c1, c2, c3)
	}
}

// TestFaultStreamSeeded checks the generated stream is a pure function of
// the seed, keeps the per-block fault mix, and never faults an entity that
// is already down.
func TestFaultStreamSeeded(t *testing.T) {
	w, err := worldgen.Small(7)
	if err != nil {
		t.Fatal(err)
	}
	dep := w.Imperva.IM6
	a, err := faultStream(3, 40, w.Topo, dep)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := faultStream(3, 40, w.Topo, dep)
	c, _ := faultStream(4, 40, w.Topo, dep)
	if eventBody(a) != eventBody(b) {
		t.Error("same seed, different streams")
	}
	if eventBody(a) == eventBody(c) {
		t.Error("different seeds, same stream")
	}
	kinds := map[string]int{}
	for i, ev := range a {
		kinds[ev.Kind.String()]++
		if i > 0 && ev.At <= a[i-1].At {
			t.Fatalf("event %d (%s) is not after %s", i, ev, a[i-1])
		}
	}
	// 40 units = 4 blocks of 3 site, 3 link, 1 IXP, 1 crowd, 2 flap units.
	want := map[string]int{"site-down": 12, "site-up": 12, "link-down": 12, "link-up": 12, "ixp-down": 4, "ixp-up": 4,
		"flash-begin": 4, "flash-end": 4, "reannounce": 8}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s: %d events, want %d", k, kinds[k], n)
		}
	}
	// The server applies the stream without error.
	r := newComposition(w, dep, nil)
	r.serveStart()
	for _, ev := range a {
		if err := r.serveApply(ev); err != nil {
			t.Fatalf("apply %s: %v", ev, err)
		}
	}
}
