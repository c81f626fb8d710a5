package traffic

import (
	"bytes"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs"
)

// reportsIdentical compares two load reports bit-for-bit: per-site demand,
// group counts, unserved demand, and every assignment.
func reportsIdentical(t *testing.T, label string, a, b *LoadReport) {
	t.Helper()
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("%s: site counts differ: %d vs %d", label, len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("%s: site %s differs: %+v vs %+v", label, a.Sites[i].Site, a.Sites[i], b.Sites[i])
		}
	}
	if a.Unserved != b.Unserved {
		t.Fatalf("%s: unserved differs: %v vs %v", label, a.Unserved, b.Unserved)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("%s: assignment counts differ: %d vs %d", label, len(a.Assignments), len(b.Assignments))
	}
	for k, av := range a.Assignments {
		if bv, ok := b.Assignments[k]; !ok || av != bv {
			t.Fatalf("%s: assignment %s differs: %+v vs %+v", label, k, av, bv)
		}
	}
}

// TestEvaluateParallelBitIdentical pins the deterministic-reduction
// contract: the load report is bit-identical at any evaluation worker
// count, because the summation tree is defined by the fixed chunk count,
// not by scheduling.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})

	for _, b := range []int{0, m.Buckets() / 2, m.Buckets() - 1} {
		mat := m.Matrix(b)
		ev.Workers = 1
		serial := ev.Evaluate(mat)
		for _, workers := range []int{2, 4, 8} {
			ev.Workers = workers
			reportsIdentical(t, "bucket eval", serial, ev.Evaluate(mat))
		}
	}
	ev.Workers = 0
}

// TestResolveParallelDeterminism is the tentpole acceptance check for the
// concurrent trial loop: Resolve with a parallel worker pool must produce
// the identical action sequence, final report, and JSONL trace stream
// (full-precision trial objectives, commits and rewinds) as the serial walk
// at Workers=1.
func TestResolveParallelDeterminism(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 2.5)

	type outcome struct {
		res   *SteeringResult
		trace string
	}
	runOnce := func(workers int) outcome {
		var trace bytes.Buffer
		st := NewSteerer(ev, SteeringConfig{
			AllowSelective:     true,
			AllowCrossAnnounce: true,
			Workers:            workers,
			Tracer:             obs.NewTracer(&trace),
		})
		res, err := st.Resolve(mat)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := st.Reset(); err != nil {
			t.Fatalf("workers=%d: reset: %v", workers, err)
		}
		return outcome{res, trace.String()}
	}

	serial := runOnce(1)
	if len(serial.res.Initial.Overloads()) == 0 {
		t.Skip("flash factor did not overload the small world; nothing to steer")
	}
	for _, workers := range []int{2, 4, 0} {
		par := runOnce(workers)
		if par.trace != serial.trace {
			t.Fatalf("workers=%d: trace differs from serial walk:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial.trace, par.trace)
		}
		if len(par.res.Actions) != len(serial.res.Actions) {
			t.Fatalf("workers=%d: %d actions; serial took %d", workers, len(par.res.Actions), len(serial.res.Actions))
		}
		for i := range serial.res.Actions {
			if serial.res.Actions[i].String() != par.res.Actions[i].String() {
				t.Fatalf("workers=%d: action %d = %s; serial = %s",
					workers, i, par.res.Actions[i], serial.res.Actions[i])
			}
		}
		reportsIdentical(t, "final report", serial.res.Final, par.res.Final)
		if par.res.Resolved != serial.res.Resolved {
			t.Fatalf("workers=%d: resolved=%v; serial=%v", workers, par.res.Resolved, serial.res.Resolved)
		}
	}
}
