package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's vocabulary; BENCHMARK.json at the repository root
// declares the same names (a self-test holds the two equal).
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are printed by every untraced run. Each workload defines its
// operation (see README.md): an ingested event on serve-burst, a dashboard
// query on serve-read, a Resolve+Reset on steer-flash and a scenario step
// on scenario-replay. Wall-clock rates and latencies are printed on the
// "#" lines of every run but not gated: see endPhase.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are printed by every traced run. A layer a workload does not
// call reports 0.
var perLayer = []metricSpec{
	{"worldgen.new_s", "s"},
	{"server.new_s", "s"},
	{"server.apply_ms", "ms"},
	{"server.handler_us.load", "us"},
	{"server.handler_us.status", "us"},
	{"server.handler_us.healthz", "us"},
	{"server.handler_us.timeseries", "us"},
	{"server.handler_us.alerts", "us"},
	{"server.handler_us.explain", "us"},
	{"server.handler_us.diff", "us"},
	{"server.handler_us.catchment", "us"},
	{"server.watch_frames", "count"},
	{"server.watch_gaps", "count"},
	{"server.event_post_ms", "ms"},
	{"bgp.reconverge_ms", "ms"},
	{"bgp.dirty_ases", "count"},
	{"bgp.passes", "count"},
	{"bgp.full_fallbacks", "count"},
	{"bgp.alloc_kb", "KB"},
	{"bgp.fork_us", "us"},
	{"traffic.matrix_us", "us"},
	{"traffic.evaluate_ms", "ms"},
	{"traffic.steer_rounds", "count"},
	{"traffic.steer_trials", "count"},
	{"traffic.steer_actions", "count"},
	{"traffic.steer_rewinds", "count"},
	{"traffic.steer_commit_ratio", "ratio"},
	{"traffic.trial_ms", "ms"},
	{"traffic.reset_ms", "ms"},
	{"ts.sample_us", "us"},
	{"ts.eval_us", "us"},
	{"glass.capture_ms", "ms"},
	{"glass.diff_ms", "ms"},
	{"glass.moves", "count"},
	{"dynamics.decode_us", "us"},
	{"dynamics.snapshot_ms", "ms"},
	{"dynamics.churn_diff_ms", "ms"},
	{"http.rtt_us", "us"},
	{"go.gc_cpu_pct", "%"},
	{"go.alloc_mb", "MB"},
	{"go.num_gc", "count"},
	{"go.heap_peak_mb", "MB"},
	{"go.heap_live_mb", "MB"},
	{"prog.bgp.reconverge_ms", "ms"},
	{"prog.traffic.eval_ms", "ms"},
	{"prog.steer.trial_phase_ms", "ms"},
	{"prog.serve.http_us", "us"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.error_rate", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and its success accounting.
type report struct {
	vals      map[string]float64
	attempted int64
	failed    int64
	notes     []string // human-readable lines printed before the result
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// op counts n attempted operations of which failed failed.
func (r *report) op(n, failed int64) {
	r.attempted += n
	r.failed += failed
}

// fail records one failed check with its reason.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.notef("FAIL "+format, args...)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// emit prints the notes and then the result line holding exactly the
// specs' metrics. A spec without a value, or a value that is not a finite
// number, is an error: the benchmark never prints a partial result.
func (r *report) emit(w io.Writer, specs []metricSpec) error {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, s := range specs {
		v, ok := r.vals[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v is not a finite number", s.Name, v)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# metric %s = %.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
