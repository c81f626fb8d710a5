package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"anysim/internal/obs"
)

// ledger is the traced run's per-layer record. Every call the benchmark
// wraps becomes an obs span — begin and end events carrying id, parent and
// wall_ns, over a wall-enabled registry — so `anysim profile -top` and
// `-chrome` render the ledger from the span file, and its duration is kept
// as a sample under the span's scope.name. Spans are only opened from one
// goroutine at a time (the tracer's open-span stack defines parenthood).
// The nil *ledger is the untraced path: start returns an inert span.
type ledger struct {
	reg *obs.Registry
	tr  *obs.Tracer
	buf bytes.Buffer

	timers  map[string]obs.SpanTimer
	samples map[string][]float64 // scope.name -> span durations, ns
}

// newLedger opens an in-memory trace whose header names the seed and the
// world; reg must already have wall collection enabled.
func newLedger(reg *obs.Registry, seed int64, worldHash string) *ledger {
	l := &ledger{reg: reg, timers: map[string]obs.SpanTimer{}, samples: map[string][]float64{}}
	l.tr = obs.NewTracer(&l.buf)
	l.tr.WriteHeader(obs.NewTraceHeader(seed, worldHash))
	return l
}

// span is one open ledger span.
type span struct {
	l   *ledger
	key string
	sc  obs.SpanScope
	t0  time.Time
}

// start opens a span named scope.name.
func (l *ledger) start(scope, name string) span {
	if l == nil {
		return span{}
	}
	key := scope + "." + name
	tm, ok := l.timers[key]
	if !ok {
		tm = l.reg.SpanTimer("bench." + key)
		l.timers[key] = tm
	}
	sc := obs.StartSpan(l.tr, l.reg, tm, scope, name)
	return span{l: l, key: key, sc: sc, t0: time.Now()}
}

// end closes the span and records its duration.
func (s *span) end() {
	if s.l == nil {
		return
	}
	d := time.Since(s.t0)
	s.sc.End()
	s.l.samples[s.key] = append(s.l.samples[s.key], float64(d.Nanoseconds()))
}

// add records a sample that is not a duration (a count a call returned).
func (l *ledger) add(key string, v float64) {
	if l != nil {
		l.samples[key] = append(l.samples[key], v)
	}
}

// dist summarizes the samples under key.
func (l *ledger) dist(key string) dist {
	if l == nil {
		return dist{}
	}
	return summarize(append([]float64(nil), l.samples[key]...))
}

// medianMs etc. convert the median of a duration key (0 without samples).
func (l *ledger) medianMs(key string) float64 { return l.dist(key).P50 / 1e6 }
func (l *ledger) medianUs(key string) float64 { return l.dist(key).P50 / 1e3 }

// total sums the samples under key.
func (l *ledger) total(key string) float64 {
	if l == nil {
		return 0
	}
	t := 0.0
	for _, v := range l.samples[key] {
		t += v
	}
	return t
}

// write saves the span file and returns its path.
func (l *ledger) write(dir, name string) (string, error) {
	if err := l.tr.Close(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, l.buf.Bytes(), 0o644)
}

// describe renders one ledger line per span site: count, median and tail.
func (l *ledger) describe(r *report) {
	keys := make([]string, 0, len(l.samples))
	for k := range l.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := l.dist(k)
		if _, isSpan := l.timers[k]; !isSpan {
			r.notef("ledger %-28s n=%-5d p50=%.6g %s=%.6g", k, d.N, d.P50, d.label(), d.tailOrMax())
			continue
		}
		r.notef("ledger %-28s n=%-5d p50=%.3fms %s=%.3fms total=%.3fs", k, d.N, d.P50/1e6, d.label(), d.tailOrMax()/1e6, l.total(k)/1e9)
	}
}

// progMeanMs is the mean of one of the program's own wall histograms, in
// milliseconds (0 when it observed nothing) — the cross-check beside the
// benchmark's outside timings.
func progMeanMs(reg *obs.Registry, name string) float64 {
	h := reg.WallHistogram(name, obs.Pow2Bounds(34))
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count()) / 1e6
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// allocBytes reads the cumulative heap allocation counter alone (cheap
// enough to bracket single calls).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the CPU time the process has used (user + system, all
// threads). It excludes time the hypervisor stole from the box's vCPUs,
// which on a shared 2-vCPU VM swung the wall time of identical runs by a
// third.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memWatch samples the Go runtime's memory every 50ms through a measured
// phase: the memory held from the OS (mapped minus released) and the peak
// heap in use.
type memWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// Written by the sampler, read after it has exited.
	heldSum, samples float64
	heapPeak         uint64
}

func startMemWatch() *memWatch {
	m := &memWatch{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.heldSum += float64(s[0].Value.Uint64() - s[1].Value.Uint64())
			m.samples++
			m.heapPeak = max(m.heapPeak, s[2].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// done stops the sampler and returns the mean memory held and the peak
// heap in use, in MB.
func (m *memWatch) done() (heldMB, heapPeakMB float64) {
	close(m.stop)
	m.wg.Wait()
	const mb = 1 << 20
	return m.heldSum / m.samples / mb, float64(m.heapPeak) / mb
}

// liveHeapMB runs a full GC and returns the heap it found live, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// phase brackets one measured phase with the runtime counters, the
// process CPU clock and the memory sampler.
type phase struct {
	before runtimeSample
	cpu0   time.Duration
	wall0  time.Time
	mem    *memWatch
}

func (r *run) startPhase() *phase {
	return &phase{before: readRuntime(), cpu0: cpuTime(), wall0: time.Now(), mem: startMemWatch()}
}

// endPhase reports a phase that completed ops operations (named op):
// cpu_ms_per_op is the process CPU time per operation and alloc_kb_per_op
// the heap allocated per operation. The allocation count is the steady one:
// on a shared 2-vCPU VM the wall time and even the CPU time of identical
// runs moved by a third, while the bytes a run allocates depend only on its
// inputs. The live heap a full GC finds at the end of the phase, the memory
// held from the OS and the peak RSS are noted; the first follows which
// events' forks sit in the state ring, the others follow GC timing.
// Traced runs also get the go.* metrics.
func (r *run) endPhase(p *phase, ops int, op string) {
	cpu, wall := cpuTime()-p.cpu0, time.Since(p.wall0)
	after := readRuntime()
	held, heapPeak := p.mem.done()
	live := liveHeapMB()
	perOp := float64(cpu.Nanoseconds()) / 1e6 / float64(ops)
	allocKB := float64(after.allocBytes-p.before.allocBytes) / 1024 / float64(ops)
	r.rep.set("cpu_ms_per_op", perOp)
	r.rep.set("alloc_kb_per_op", allocKB)
	r.rep.notef("phase %d × %s in %.3fs wall, %.3fs CPU (%.1f%% of %d CPUs) = %.3f CPU ms and %.1f KB allocated per %s",
		ops, op, wall.Seconds(), cpu.Seconds(), 100*cpu.Seconds()/wall.Seconds()/float64(r.nproc), r.nproc, perOp, allocKB, op)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.rep.notef("memory live heap %.1f MB after the phase, held %.1f MB mean over it, process peak RSS %.1f MB", live, held, float64(ru.Maxrss)/1024)
	}
	if r.trace {
		runtimeDelta(r.rep, p.before, after, heapPeak)
		r.rep.set("go.heap_live_mb", live)
	}
}

// runtimeDelta fills the go.* metrics from two readings around a phase.
func runtimeDelta(r *report, before, after runtimeSample, heapPeakMB float64) {
	cpu := after.totalCPU - before.totalCPU
	pct := 0.0
	if cpu > 0 {
		pct = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("go.gc_cpu_pct", pct)
	r.set("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20))
	r.set("go.num_gc", float64(after.gcCycles-before.gcCycles))
	r.set("go.heap_peak_mb", heapPeakMB)
	r.notef("runtime gc_cpu=%.1f%% of %.2f cpu-s, alloc=%.0f MB, gc cycles=%d, heap peak=%.0f MB",
		pct, cpu, float64(after.allocBytes-before.allocBytes)/(1<<20), after.gcCycles-before.gcCycles, heapPeakMB)
}
