package main

import (
	"fmt"
	"time"

	"anysim/internal/dynamics"
	"anysim/internal/glass"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// chunkUnits is how many fault units one Runner.Run call replays: one
// block of unitPattern, so every call sees the same fault mix and the
// per-call step times compare. A run replays chunks until its time is up.
var chunkUnits = len(unitPattern)

// scenarioRunner wires a runner the way `anysim scenario` with -seriesfile
// and X2 do: explained moves, and the flight recorder with the load plane.
func scenarioRunner(w *worldgen.World) *dynamics.Runner {
	dep := w.Imperva.IM6
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	r := dynamics.NewRunner(w.Engine, dep)
	r.Measurer = w.Measurer
	r.Probes = w.Platform.Retained()
	r.ExplainMoves = true
	r.Series = ts.New(ts.Config{})
	r.Eval = traffic.NewEvaluator(w.Engine, dep, model, traffic.CapacityConfig{})
	r.Model = model
	return r
}

// scenarioReplay runs dynamics.Runner.Run over a seeded generated scenario,
// chunk by chunk, and checks its series dump against the layer-stepped
// replay of the same steps.
func (r *run) scenarioReplay() error {
	var w *worldgen.World
	var runner *dynamics.Runner
	err := r.timeSetups(func(int) error {
		w, runner = nil, nil
		var err error
		if w, err = r.buildWorld(); err != nil {
			return err
		}
		sp := r.led.start("dynamics", "new_runner")
		runner = scenarioRunner(w)
		sp.end()
		return nil
	})
	if err != nil {
		return err
	}
	events, err := faultStream(r.seed, 2000, w.Topo, w.Imperva.IM6)
	if err != nil {
		return err
	}
	// Chunks end on unit boundaries: a unit's fault and repair share a chunk.
	var chunks [][]dynamics.Event
	for start := 0; start < len(events); {
		end := start
		for u := 0; u < chunkUnits && end < len(events); u++ {
			if events[end].Kind == dynamics.Reannounce {
				end++ // a flap is one self-restoring event
			} else {
				end += 2
			}
		}
		chunks = append(chunks, events[start:end])
		start = end
	}
	r.rep.notef("inputs seed=%d digest=%s (scenario of %d events in chunks of %d fault units)", r.seed, digestOf(eventBody(events)), len(events), chunkUnits)
	r.rep.notef("load closed loop, 1 in-process caller, Runner.Run with ExplainMoves, Series, Eval and Model")

	ph := r.startPhase()
	var perStep []float64
	var steps []dynamics.Step
	ran := 0
	t0 := time.Now()
	for ; ran < len(chunks) && (ran == 0 || time.Since(t0) < r.seconds); ran++ {
		sc := &dynamics.Scenario{Name: fmt.Sprintf("bench-%d-%d", r.seed, ran), Events: chunks[ran]}
		c0 := time.Now()
		st, err := runner.Run(sc)
		if err != nil {
			return fmt.Errorf("Runner.Run: %w", err)
		}
		perStep = append(perStep, float64(time.Since(c0).Nanoseconds())/1e6/float64(len(st)))
		steps = append(steps, st...)
	}
	elapsed := time.Since(t0)
	r.endPhase(ph, len(steps), "step")
	r.rep.op(int64(len(steps)), 0)

	d := summarize(perStep)
	r.rep.notef("scenario-replay: %d steps in %d Run calls over %.3fs = %.3f scenario_steps_per_s; ms/step per call p50=%.1f %s=%.1f (n=%d)",
		len(steps), ran, elapsed.Seconds(), float64(len(steps))/elapsed.Seconds(), d.P50, d.label(), d.tailOrMax(), d.N)
	want := digestOf(string(runner.Series.AppendJSON(nil)))
	r.rep.notef("digest scenario series=%s", want)

	// The untraced run replays without the per-step catchment captures (the
	// series dump does not depend on them); the traced run replays twice
	// with them, untraced and traced, so the two do the same work and the
	// moves of every step are checked too.
	replayed := events[:len(steps)]
	replay := func(l *ledger, explain bool) (time.Duration, error) {
		comp, err := r.newReplay(l)
		if err != nil {
			return 0, err
		}
		if explain {
			if _, err := comp.explain(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for i, ev := range replayed {
			moves, err := comp.scenarioStep(ev, explain)
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", ev, err)
			}
			if explain && !sameMoves(moves, steps[i].Moves) {
				r.rep.fail("replayed moves of step %d (%s) differ from Runner.Run's", i+1, ev)
			}
		}
		took := time.Since(t0)
		got := digestOf(string(comp.db.AppendJSON(nil)))
		label := "replay"
		if l != nil {
			label = "replay(traced)"
		}
		r.rep.notef("digest %s series=%s", label, got)
		if got != want {
			r.rep.fail("%s series dump %s differs from Runner.Run's %s", label, got, want)
		} else {
			r.rep.op(1, 0)
		}
		return took, nil
	}
	plain, err := replay(nil, r.trace)
	if err != nil {
		return err
	}
	if r.trace {
		traced, err := replay(r.led, true)
		if err != nil {
			return err
		}
		r.traceOverhead(plain, traced)
	}
	return nil
}

// sameMoves compares two classified churn reports by their canonical JSON.
func sameMoves(a, b *glass.DiffReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	da, errA := canonicalValue(a)
	db, errB := canonicalValue(b)
	return errA == nil && errB == nil && da == db
}
