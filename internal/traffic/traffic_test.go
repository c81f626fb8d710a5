package traffic

import (
	"math"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

var smallWorld = func() func(t *testing.T) *worldgen.World {
	var cached *worldgen.World
	return func(t *testing.T) *worldgen.World {
		t.Helper()
		if cached == nil {
			w, err := worldgen.Small(7)
			if err != nil {
				t.Fatal(err)
			}
			cached = w
		}
		return cached
	}
}()

func TestDemandModelDeterminism(t *testing.T) {
	w := smallWorld(t)
	a := NewModel(w.Platform, DemandConfig{Seed: 1})
	b := NewModel(w.Platform, DemandConfig{Seed: 1})
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			t.Fatalf("group %d differs between same-seed models: %+v vs %+v", i, a.Groups[i], b.Groups[i])
		}
	}
	c := NewModel(w.Platform, DemandConfig{Seed: 2})
	same := true
	for i := range a.Groups {
		if a.Groups[i].Base != c.Groups[i].Base {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical base rates")
	}
}

func TestDemandModelShape(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	if got, want := len(m.Groups), len(w.Platform.GroupKeys()); got != want {
		t.Fatalf("model has %d groups; platform has %d", got, want)
	}
	if math.Abs(m.TotalBase()-1e6) > 1 {
		t.Fatalf("total base rate %.1f; want ~1e6", m.TotalBase())
	}
	// Zipf skew: the largest group dominates the median group.
	var max, sum float64
	for _, g := range m.Groups {
		if g.Base <= 0 {
			t.Fatalf("group %s has non-positive base rate %f", g.Key, g.Base)
		}
		if g.Base > max {
			max = g.Base
		}
		sum += g.Base
	}
	if max < 20*sum/float64(len(m.Groups)) {
		t.Errorf("demand not heavy-tailed: max %.1f vs mean %.1f", max, sum/float64(len(m.Groups)))
	}
}

func TestDiurnalCycle(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1, Buckets: 24})
	// Every group's rate must swing over the day and average back to its
	// base (the cosine integrates to zero over 24 buckets).
	mats := m.Matrices()
	if len(mats) != 24 {
		t.Fatalf("got %d matrices; want 24", len(mats))
	}
	g := m.Groups[0]
	var lo, hi, mean float64 = math.Inf(1), 0, 0
	for _, mat := range mats {
		r := mat.Rates[g.Key]
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
		mean += r / 24
	}
	if hi/lo < 1.5 {
		t.Errorf("diurnal swing too flat: lo %.2f hi %.2f", lo, hi)
	}
	if math.Abs(mean-g.Base)/g.Base > 0.01 {
		t.Errorf("day-mean %.2f deviates from base %.2f", mean, g.Base)
	}
	// Two groups 180 degrees of longitude apart must peak in different
	// buckets.
	var west, east *GroupDemand
	for i := range m.Groups {
		g := &m.Groups[i]
		if g.Lon < -60 && west == nil {
			west = g
		}
		if g.Lon > 60 && east == nil {
			east = g
		}
	}
	if west != nil && east != nil {
		peak := func(g *GroupDemand) int {
			best, bestR := 0, 0.0
			for b, mat := range mats {
				if r := mat.Rates[g.Key] / g.Base; r > bestR {
					best, bestR = b, r
				}
			}
			return best
		}
		if peak(west) == peak(east) {
			t.Errorf("west (lon %.0f) and east (lon %.0f) peak in the same bucket %d", west.Lon, east.Lon, peak(west))
		}
	}
}

func TestFlashCrowd(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	mat := m.Matrix(0)
	crowd := m.FlashCrowd(mat, geo.EMEA, 3)
	for k, r := range mat.Rates {
		g, _ := m.Group(k)
		want := r
		if g.Area == geo.EMEA {
			want = 3 * r
		}
		if math.Abs(crowd.Rates[k]-want) > 1e-9 {
			t.Fatalf("group %s (area %v): flash rate %.3f; want %.3f", k, g.Area, crowd.Rates[k], want)
		}
	}
	if crowd.Total <= mat.Total {
		t.Fatal("flash crowd did not raise total demand")
	}
}

func TestPenaltyMs(t *testing.T) {
	const soft = 0.75
	if PenaltyMs(0.5, soft) != 0 || PenaltyMs(soft, soft) != 0 {
		t.Fatal("penalty below the soft knee must be zero")
	}
	if got := PenaltyMs(1, soft); got != kneePenaltyMs {
		t.Fatalf("penalty at u=1 is %.1f; want %d", got, kneePenaltyMs)
	}
	for _, pair := range [][2]float64{{0.8, 0.9}, {0.9, 1.0}, {1.0, 1.5}} {
		if PenaltyMs(pair[0], soft) >= PenaltyMs(pair[1], soft) {
			t.Fatalf("penalty not increasing between u=%.2f and u=%.2f", pair[0], pair[1])
		}
	}
}

func TestEvaluatorConservation(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.Matrix(0)
	rep := ev.Evaluate(mat)

	// Demand conservation: served + unserved == matrix total.
	served := 0.0
	for _, s := range rep.Sites {
		served += s.Demand
	}
	if math.Abs(served+rep.Unserved-mat.Total) > 1e-6*mat.Total {
		t.Fatalf("served %.1f + unserved %.1f != total %.1f", served, rep.Unserved, mat.Total)
	}
	if served == 0 {
		t.Fatal("no demand served at all")
	}
	// Provisioning: baseline demand never overloads a site in any bucket
	// (capacity covers Headroom x the day mean, and the diurnal peak stays
	// under that), and every site has a positive tier floor.
	for b := 0; b < m.Buckets(); b++ {
		if over := ev.Evaluate(m.Matrix(b)).Overloads(); len(over) > 0 {
			t.Fatalf("bucket %d: %d sites overloaded at baseline (worst %s u=%.2f)",
				b, len(over), over[0].Site, over[0].Utilization())
		}
	}
	for id, c := range ev.Caps {
		if c <= 0 {
			t.Fatalf("site %s has capacity %.1f; want positive floor", id, c)
		}
	}
}

func TestSteeringResolvesFlashCrowd(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	st := NewSteerer(ev, SteeringConfig{AllowSelective: true, AllowCrossAnnounce: true})

	baseline := snapshotAll(w)
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 2.5)
	res, err := st.Resolve(mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Initial.Overloads()) == 0 {
		t.Skip("flash factor did not overload the small world; nothing to steer")
	}
	if got, want := len(res.Final.Overloads()), len(res.Initial.Overloads()); got >= want {
		t.Errorf("steering did not shrink overload count: %d -> %d", want, got)
	}
	if len(res.Actions) == 0 {
		t.Fatal("overloads present but no actions taken")
	}
	for _, a := range res.Actions {
		if a.Kind == ActionPrepend && (a.Prepend < 1 || a.Prepend > bgp.MaxPrepend) {
			t.Errorf("action %s has prepend %d outside [1,%d]", a, a.Prepend, bgp.MaxPrepend)
		}
	}

	// Reset must restore routing bit-identically for every prefix.
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	restored := snapshotAll(w)
	for p, want := range baseline {
		got := restored[p]
		if len(got) != len(want) {
			t.Fatalf("prefix %s: %d catchment entries after reset; want %d", p, len(got), len(want))
		}
		for asn, site := range want {
			if got[asn] != site {
				t.Fatalf("prefix %s: AS %d served by %q after reset; want %q", p, asn, got[asn], site)
			}
		}
	}
}

func snapshotAll(w *worldgen.World) map[string]map[uint32]string {
	out := map[string]map[uint32]string{}
	for _, p := range w.Engine.Prefixes() {
		m := map[uint32]string{}
		for asn, site := range w.Engine.Catchments(p) {
			m[uint32(asn)] = site
		}
		out[p.String()] = m
	}
	return out
}

// TestPrependZeroDefaultWorldBitIdentical is the tentpole acceptance check
// on the full default world: announcing every deployment with an explicit
// Prepend of 0 yields catchments identical to the seed engine's.
func TestPrependZeroDefaultWorldBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("default world is expensive; skipped in -short mode")
	}
	w, err := worldgen.Default()
	if err != nil {
		t.Fatal(err)
	}
	ref := bgp.NewEngine(w.Topo)
	for _, p := range w.Engine.Prefixes() {
		anns := w.Engine.Announcements(p)
		zero := make([]bgp.SiteAnnouncement, len(anns))
		for i, a := range anns {
			a.Prepend = 0
			zero[i] = a
		}
		if err := ref.Announce(p, zero); err != nil {
			t.Fatal(err)
		}
		want := w.Engine.Catchments(p)
		got := ref.Catchments(p)
		if len(got) != len(want) {
			t.Fatalf("prefix %s: %d ASes with explicit prepend=0; want %d", p, len(got), len(want))
		}
		for asn, site := range want {
			if got[asn] != site {
				t.Fatalf("prefix %s: AS %d served by %q with explicit prepend=0; want %q", p, asn, got[asn], site)
			}
		}
	}
}

// TestShedCostDeterministic pins the bit-exactness of an action's shed
// cost: summing moved demand and RTT deltas over a map would follow its
// randomized iteration order and round differently from call to call.
func TestShedCostDeterministic(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.Matrix(0)
	before := ev.Evaluate(mat)

	// Withdraw the busiest site on a fork, so many groups change site.
	busiest := before.Sites[0]
	for _, sl := range before.Sites {
		if sl.Groups > busiest.Groups {
			busiest = sl
		}
	}
	f := w.Engine.Fork()
	for _, r := range w.Imperva.IM6.Regions {
		for _, a := range f.Announcements(r.Prefix) {
			if a.Site == busiest.Site {
				if err := f.WithdrawSite(r.Prefix, a.Site); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	after := ev.EvaluateOn(f, mat)

	moved, cost := shedCost(m.Groups, before, after)
	if moved == 0 {
		t.Fatalf("withdrawing %s moved no demand", busiest.Site)
	}
	for i := 0; i < 100; i++ {
		mv, c := shedCost(m.Groups, before, after)
		if math.Float64bits(mv) != math.Float64bits(moved) || math.Float64bits(c) != math.Float64bits(cost) {
			t.Fatalf("call %d: shedCost = (%v, %v); first call (%v, %v)", i, mv, c, moved, cost)
		}
	}
}
