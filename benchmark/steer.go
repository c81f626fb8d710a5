package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"anysim/internal/geo"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// The X3 flash crowd: LatAm demand ×2.8 at the bucket where LatAm demand
// peaks. The steer-flash inputs are this fixed case; the seed is recorded
// but chooses nothing (X3 is defined on the canonical world).
const (
	flashArea   = geo.LatAm
	flashFactor = 2.8
)

// steerConfig is X3's regional knob set with the trial pool sized to the
// machine.
func (r *run) steerConfig() traffic.SteeringConfig {
	return traffic.SteeringConfig{MaxActions: 64, AllowSelective: true, AllowCrossAnnounce: true, Workers: r.nproc}
}

// peakBucket is the time bucket where an area's aggregate demand peaks.
func peakBucket(m *traffic.Model, area geo.Area) int {
	best, bestRate := 0, -1.0
	for b := 0; b < m.Buckets(); b++ {
		mat := m.Matrix(b)
		rate := 0.0
		for _, g := range m.Groups {
			if g.Area == area {
				rate += mat.Rates[g.Key]
			}
		}
		if rate > bestRate {
			best, bestRate = b, rate
		}
	}
	return best
}

// flashMatrix is the demand matrix the steerer resolves.
func flashMatrix(m *traffic.Model, bucket int) traffic.Matrix {
	return m.FlashCrowd(m.Matrix(bucket), flashArea, flashFactor)
}

// reportDigest digests a load report's per-site loads and per-group
// assignments, floats by their bits.
func reportDigest(rep *traffic.LoadReport) string {
	var b strings.Builder
	bits := math.Float64bits
	fmt.Fprintf(&b, "%d %x\n", rep.Bucket, bits(rep.Unserved))
	for _, s := range rep.Sites {
		fmt.Fprintf(&b, "%s %s %d %x %x %d\n", s.Site, s.City, s.Tier, bits(s.Capacity), bits(s.Demand), s.Groups)
	}
	keys := make([]string, 0, len(rep.Assignments))
	for k := range rep.Assignments {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := rep.Assignments[k]
		fmt.Fprintf(&b, "%s %s %s %x %x\n", k, a.Site, a.Prefix, bits(a.Rate), bits(a.RTTMs))
	}
	return digestOf(b.String())
}

// steerOutcome is one Resolve + Reset.
type steerOutcome struct {
	wall    time.Duration
	resolve time.Duration
	reset   time.Duration
	actions int
	digest  string // committed actions and final report
}

// steerOnce resolves the flash crowd and resets, checking the outcome:
// every overload resolved, and Reset restoring the pre-steer report.
func (r *run) steerOnce(st *traffic.Steerer, mat traffic.Matrix, initial string, l *ledger) (steerOutcome, error) {
	var o steerOutcome
	t0 := time.Now()
	sp := l.start("traffic", "resolve")
	res, err := st.Resolve(mat)
	sp.end()
	o.resolve = time.Since(t0)
	if err != nil {
		return o, fmt.Errorf("Resolve: %w", err)
	}
	t1 := time.Now()
	sp = l.start("traffic", "reset")
	err = st.Reset()
	sp.end()
	o.reset = time.Since(t1)
	o.wall = time.Since(t0)
	if err != nil {
		return o, fmt.Errorf("Reset: %w", err)
	}
	o.actions = len(res.Actions)
	if !res.Resolved || len(res.Final.Overloads()) > 0 {
		r.rep.fail("steer left %d overloads unresolved after %d actions", len(res.Final.Overloads()), len(res.Actions))
	} else {
		r.rep.op(1, 0)
	}
	// MovedRate and RTTCostMs are sums over a map in its iteration order,
	// so their last bits vary from run to run; they are compared to 9
	// significant digits, every other field exactly.
	var acts []string
	for _, a := range res.Actions {
		acts = append(acts, fmt.Sprintf("%s|%x|%x|%x|%.9g|%.9g", a, math.Float64bits(a.UtilBefore),
			math.Float64bits(a.UtilAfter), math.Float64bits(a.ShedRate), a.MovedRate, a.RTTCostMs))
	}
	o.digest = digestOf(strings.Join(acts, "\n"), reportDigest(res.Final))
	if after := reportDigest(st.Eval.Evaluate(mat)); after != initial {
		r.rep.fail("Reset left report %s, want the pre-steer %s", after, initial)
	} else {
		r.rep.op(1, 0)
	}
	return o, nil
}

// steerFlash times X3's regional resolve of the LatAm flash crowd, in
// process: Resolve then Reset, repeated while the run lasts.
func (r *run) steerFlash() error {
	var w *worldgen.World
	var ev *traffic.Evaluator
	var st *traffic.Steerer
	err := r.timeSetups(func(int) error {
		w, ev, st = nil, nil, nil
		var err error
		if w, err = r.buildWorld(); err != nil {
			return err
		}
		model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
		ev = traffic.NewEvaluator(w.Engine, w.Imperva.IM6, model, traffic.CapacityConfig{})
		st = traffic.NewSteerer(ev, r.steerConfig())
		return nil
	})
	if err != nil {
		return err
	}
	bucket := peakBucket(ev.Model, flashArea)
	mat := flashMatrix(ev.Model, bucket)
	initialRep := ev.Evaluate(mat)
	initial := reportDigest(initialRep)
	r.rep.notef("inputs seed=%d digest=%s (X3: %s x%g at bucket %d, %d overloaded sites; the seed chooses nothing here)",
		r.seed, digestOf(initial), flashArea, flashFactor, mat.Bucket, len(initialRep.Overloads()))
	r.rep.notef("load closed loop, 1 in-process caller, steering Workers=%d", r.nproc)

	ph := r.startPhase()
	var outs []steerOutcome
	t0 := time.Now()
	for len(outs) == 0 || time.Since(t0) < r.seconds {
		o, err := r.steerOnce(st, mat, initial, nil)
		if err != nil {
			return err
		}
		if len(outs) > 0 && o.digest != outs[0].digest {
			r.rep.fail("resolve %d committed %s, resolve 1 committed %s", len(outs)+1, o.digest, outs[0].digest)
		}
		outs = append(outs, o)
	}
	r.endPhase(ph, len(outs), "resolve")

	var walls []float64
	for _, o := range outs {
		walls = append(walls, float64(o.wall.Nanoseconds())/1e6)
	}
	d := summarize(walls)
	r.rep.notef("steer-flash: %d resolves, %d actions each, steer_s p50=%.3f %s=%.3f (n=%d), digest=%s",
		len(outs), outs[0].actions, d.P50/1e3, d.label(), d.tailOrMax()/1e3, d.N, outs[0].digest)

	if !r.trace {
		return nil
	}
	// The traced resolve: the same steer with the program's registry on
	// (wall histograms and steering counters) and ledger spans around
	// Resolve and Reset. It must commit the same actions.
	ev.Instrument(r.reg)
	w.Engine.Instrument(r.reg, nil)
	cfg := r.steerConfig()
	cfg.Metrics = r.reg
	tst := traffic.NewSteerer(ev, cfg)
	o, err := r.steerOnce(tst, mat, initial, r.led)
	if err != nil {
		return err
	}
	if o.digest != outs[0].digest {
		r.rep.fail("traced resolve committed %s, untraced %s", o.digest, outs[0].digest)
	}
	r.traceOverhead(outs[0].wall, o.wall)
	count := func(name string) float64 { return float64(r.reg.Counter(name).Value()) }
	trials := count("steer.trials")
	r.rep.set("traffic.steer_rounds", count("steer.rounds"))
	r.rep.set("traffic.steer_trials", trials)
	r.rep.set("traffic.steer_actions", count("steer.actions"))
	r.rep.set("traffic.steer_rewinds", count("steer.rewinds"))
	if trials > 0 {
		r.rep.set("traffic.steer_commit_ratio", count("steer.actions")/trials)
		r.rep.set("traffic.trial_ms", float64(o.resolve.Nanoseconds())/1e6/trials)
	}
	r.rep.set("traffic.reset_ms", float64(o.reset.Nanoseconds())/1e6)
	r.rep.set("prog.steer.trial_phase_ms", progMeanMs(r.reg, "steer.round.trial_phase.ns"))

	// The layers the trials lean on, timed on the baseline state: a fork,
	// the flash matrix, and a full evaluation.
	for i := 0; i < 50; i++ {
		sp := r.led.start("bgp", "fork")
		_ = w.Engine.Fork()
		sp.end()
	}
	for i := 0; i < 20; i++ {
		sp := r.led.start("traffic", "matrix")
		_ = flashMatrix(ev.Model, bucket)
		sp.end()
	}
	for i := 0; i < 10; i++ {
		sp := r.led.start("traffic", "evaluate")
		_ = ev.EvaluateOn(w.Engine, mat)
		sp.end()
	}
	return nil
}
