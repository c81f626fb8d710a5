// Command benchmark is anysim's end-to-end and per-layer benchmark. It
// builds the paper-scale world, drives one workload against the program's
// public packages (worldgen, server over loopback HTTP, dynamics, bgp,
// traffic, obs/ts, glass), checks the outputs against a layer-stepped
// replay of the same inputs, and prints its metrics. The last line of
// standard output is one JSON object; lines before it start with "#".
//
//	bash benchmark/run.sh --workload serve-burst --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the span file under .bench_build/trace/, which
// `anysim profile -top <file>` reads. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve-burst":     (*run).serveBurst,
	"serve-read":      (*run).serveRead,
	"steer-flash":     (*run).steerFlash,
	"scenario-replay": (*run).scenarioReplay,
}

// traceDir is where traced runs write their span files.
const traceDir = ".bench_build/trace"

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: serve-burst, serve-read, steer-flash or scenario-replay")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "how long the workload is measured")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, known := workloads[*workload]
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		rep:      newReport(),
	}
	wcfg := worldConfig()
	if r.trace {
		r.reg = obs.NewRegistry()
		r.reg.EnableWall(true)
		r.led = newLedger(r.reg, r.seed, wcfg.Hash())
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", r.workload, r.seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# meta nproc=%d gomaxprocs=%d steer_workers=%d go=%s commit=%s source=%s world=seed:%d,scale:paper,provenance:on,hash:%s dep=IM6 serve_history=%d\n",
		r.nproc, runtime.GOMAXPROCS(0), r.nproc, runtime.Version(), commit(), sourceDigest(), worldgen.DefaultSeed, wcfg.Hash(), history)

	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", r.workload, err)
		return 1
	}
	specs := endToEnd
	if r.trace {
		specs = perLayer
		r.fillLedger()
		path, err := r.led.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: write spans: %v\n", err)
			return 1
		}
		r.rep.notef("spans %s (go run ./cmd/anysim profile -top %s)", path, path)
	}
	if err := r.rep.emit(stdout, specs); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if r.rep.failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed\n", r.rep.failed, r.rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ledgerMetrics are per-layer metrics read from ledger samples: the median
// of the samples under key, times scale (span durations are nanoseconds).
var ledgerMetrics = []struct {
	metric, key string
	scale       float64
}{
	{"worldgen.new_s", "worldgen.new", 1e-9},
	{"server.new_s", "server.new", 1e-9},
	{"bgp.reconverge_ms", "bgp.reconverge", 1e-6},
	{"bgp.dirty_ases", "bgp.dirty_ases", 1},
	{"bgp.passes", "bgp.passes", 1},
	{"bgp.alloc_kb", "bgp.alloc_kb", 1},
	{"bgp.fork_us", "bgp.fork", 1e-3},
	{"traffic.matrix_us", "traffic.matrix", 1e-3},
	{"traffic.evaluate_ms", "traffic.evaluate", 1e-6},
	{"ts.sample_us", "ts.sample_load", 1e-3},
	{"ts.eval_us", "ts.eval", 1e-3},
	{"glass.capture_ms", "glass.capture", 1e-6},
	{"glass.diff_ms", "glass.diff", 1e-6},
	{"dynamics.decode_us", "dynamics.decode", 1e-3},
	{"dynamics.snapshot_ms", "dynamics.snapshot", 1e-6},
	{"dynamics.churn_diff_ms", "dynamics.churn_diff", 1e-6},
}

// fillLedger completes the traced run's per-layer metrics: those the
// workload set directly stay, the rest come from the ledger, the program's
// own histograms, or 0 for a layer this workload does not call.
func (r *run) fillLedger() {
	for _, m := range ledgerMetrics {
		r.setDefault(m.metric, r.led.dist(m.key).P50*m.scale)
	}
	r.setDefault("bgp.full_fallbacks", r.led.total("bgp.full"))
	r.setDefault("glass.moves", r.led.total("glass.moves"))
	r.setDefault("prog.bgp.reconverge_ms", progMeanMs(r.reg, "bgp.reconverge.ns"))
	r.setDefault("prog.traffic.eval_ms", progMeanMs(r.reg, "traffic.eval.report_ns"))
	r.setDefault("bench.error_rate", errorRate(r.rep))
	for _, s := range perLayer {
		r.setDefault(s.Name, 0)
	}
	r.led.describe(r.rep)
}

func (r *run) setDefault(name string, v float64) {
	if _, ok := r.rep.vals[name]; !ok {
		r.rep.set(name, v)
	}
}

func errorRate(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return float64(rep.failed) / float64(rep.attempted)
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout the
// benchmark runs in: the identity of the code measured, also where there is
// no VCS revision.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
