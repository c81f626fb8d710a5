package traffic

import (
	"bytes"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/policy"
)

var scopedPolicy = policy.MustParse("policy scope\nimport -> accept\n")

// TestScopedAnnounceApply: the scoped-announce action stamps the site's
// announcement with its own no-peer-metro community, without mutating the
// announcement slice shared with other trials.
func TestScopedAnnounceApply(t *testing.T) {
	w := smallWorld(t)
	e := w.Engine.Fork()
	e.SetPolicy(scopedPolicy)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	st := NewSteerer(NewEvaluator(e, w.Imperva.IM6, m, CapacityConfig{}), SteeringConfig{AllowScoped: true})

	p := w.Imperva.IM6.Regions[0].Prefix
	anns := e.Announcements(p)
	if len(anns) == 0 {
		t.Fatalf("no announcements for %s", p)
	}
	ann := anns[0]
	scope, err := policy.NoPeerMetro(ann.City)
	if err != nil {
		t.Skipf("site city %s is not an IATA metro", ann.City)
	}
	cur := map[netip.Prefix][]bgp.SiteAnnouncement{p: slices.Clone(anns)}
	act := &Action{Kind: ActionScopedAnnounce, Prefix: p, Site: ann.Site, Target: ann.Site}
	if err := st.applyOn(e, cur, act); err != nil {
		t.Fatal(err)
	}
	got, _ := annIn(cur, p, ann.Site)
	if got == nil || !hasCommunity(got.Communities, scope) {
		t.Fatalf("scoped announce did not add %s: %+v", scope, got)
	}
	// The pre-action announcement value is untouched (fresh slice).
	if len(ann.Communities) != 0 {
		t.Fatalf("original announcement mutated: %+v", ann)
	}
	// Applying again on the already-scoped set is a no-op add.
	if err := st.applyOn(e, cur, act); err != nil {
		t.Fatal(err)
	}
	got, _ = annIn(cur, p, ann.Site)
	n := 0
	for _, c := range got.Communities {
		if c == scope {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("scope community duplicated: %+v", got.Communities)
	}
}

// TestScopedSteeringDeterminism mirrors the parallel-walk determinism test
// with the scoped-announce knob enabled on a policy-bearing fork: the JSONL
// trace stream and the chosen actions must be byte-identical at Workers 1,
// 2, and GOMAXPROCS.
func TestScopedSteeringDeterminism(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 10.0)

	type outcome struct {
		res   *SteeringResult
		trace string
	}
	runOnce := func(workers int) outcome {
		// Fork per run: smallWorld is shared across tests and the policy
		// must not leak onto its engine.
		e := w.Engine.Fork()
		e.SetPolicy(scopedPolicy)
		ev := NewEvaluator(e, w.Imperva.IM6, m, CapacityConfig{})
		var trace bytes.Buffer
		st := NewSteerer(ev, SteeringConfig{
			AllowSelective:     true,
			AllowCrossAnnounce: true,
			AllowScoped:        true,
			Workers:            workers,
			Tracer:             obs.NewTracer(&trace),
		})
		res, err := st.Resolve(mat)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{res, trace.String()}
	}

	serial := runOnce(1)
	if len(serial.res.Initial.Overloads()) == 0 {
		t.Skip("flash factor did not overload the small world; nothing to steer")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
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
	}
}
