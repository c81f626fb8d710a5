package glass

import (
	"net/netip"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/policy"
	"anysim/internal/topo"
)

// refGroup is one group's reference state: its full explanation and the
// engine's complete provenance record for every hop of the chain.
type refGroup struct {
	ce   CatchmentExplanation
	prov []bgp.Provenance
	ok   []bool
}

func newRefGroup(e *bgp.Engine, ce CatchmentExplanation) refGroup {
	r := refGroup{ce: ce}
	for _, h := range ce.Exp.Hops {
		p, ok := e.Provenance(ce.Prefix, h.ASN)
		r.prov, r.ok = append(r.prov, p), append(r.ok, ok)
	}
	return r
}

// summary is hop i's summary written out from the full record,
// independently of the Capture path.
func (r refGroup) summary(i int) hopSummary {
	s := hopSummary{asn: r.ce.Exp.Hops[i].ASN}
	p := r.prov[i]
	if !r.ok[i] {
		return s
	}
	s.valid, s.step, s.winClass, s.winLen = p.Valid, p.Step, p.WinnerClass, int32(p.Winner.Len())
	if p.HasRunnerUp {
		s.hasRunner = true
		s.runnerCity = p.RunnerUp.Cities[len(p.RunnerUp.Cities)-1]
	}
	return s
}

// refAttribute is the move attribution computed from the full hop chains
// of the two explanations, with each pivot's complete provenance record.
func refAttribute(before, after *CatchmentSet, rb, ra refGroup) (MoveCause, topo.ASN) {
	b, a := rb.ce, ra.ce
	switch {
	case !b.Served && a.Served:
		return CauseGainedRoute, 0
	case b.Served && !a.Served:
		return CauseLostRoute, 0
	case !after.announcedSite(b.Prefix, b.Site):
		return CauseSiteWithdrawn, 0
	case !before.announcedSite(a.Prefix, a.Site):
		return CauseSiteRestored, 0
	}
	bh, ah := b.Exp.Hops, a.Exp.Hops
	pivot := min(len(bh), len(ah)) - 1
	for k := 1; k < len(bh) && k < len(ah); k++ {
		if bh[k].ASN != ah[k].ASN {
			pivot = k - 1
			break
		}
	}
	pb, okB := rb.prov[pivot], rb.ok[pivot]
	pa, okA := ra.prov[pivot], ra.ok[pivot]
	bPol := okB && pb.Valid && pb.HasRunnerUp && pb.Step == bgp.StepCommunity
	aPol := okA && pa.Valid && pa.HasRunnerUp && pa.Step == bgp.StepCommunity
	if bPol != aPol {
		return CausePolicyFilter, bh[pivot].ASN
	}
	if okB && okA && pb.Valid && pa.Valid &&
		pb.WinnerClass == pa.WinnerClass && pb.Winner.Len() == pa.Winner.Len() {
		return CauseTieBreakShift, bh[pivot].ASN
	}
	return CausePolicyShift, bh[pivot].ASN
}

// TestCaptureMatchesReference: Capture's compact per-group state equals the
// full ExplainCatchment of every group, and Diff's causes equal the
// attribution computed from full hop chains, across a site withdraw and
// restore, a link flap and two policy changes (also rejecting ZRH, then no
// policy) on the seed-7 small world under "import metro FRA -> reject". The probe set includes groups whose metro
// lies in another region's country, so one metro is looked up under two
// prefixes within one capture.
func TestCaptureMatchesReference(t *testing.T) {
	w := provWorld(t, 7)
	e, dep, m := w.Engine, w.Imperva.IM6, w.Measurer
	reannounce := func() {
		t.Helper()
		for _, r := range dep.Regions {
			if err := e.Announce(r.Prefix, e.Announcements(r.Prefix)); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.SetPolicy(policy.MustParse("policy no-fra\nimport metro FRA -> reject\n"))
	reannounce()

	probes := crossRegionProbes(t, e, dep, w.Platform.Retained())

	// One step per state change; each is captured and fully explained
	// before the next mutates the engine (and the shared topology).
	region := dep.Regions[0]
	site := e.Announcements(region.Prefix)[0]
	tp := e.Topology()
	li := tp.LinksOf(dep.ASN)[0]
	flap := func(up bool) func() error {
		return func() error {
			if err := tp.SetLinkEnabled(li, up); err != nil {
				return err
			}
			return e.ReconvergeLinks([]int{li})
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"base", func() error { return nil }},
		{"site-down", func() error { return e.WithdrawSite(region.Prefix, site.Site) }},
		{"site-up", func() error { return e.AnnounceSite(region.Prefix, site) }},
		{"link-down", flap(false)},
		{"link-up", flap(true)},
		{"policy-change", func() error {
			e.SetPolicy(policy.MustParse("policy no-fra-zrh\nimport metro FRA -> reject\nimport metro ZRH -> reject\n"))
			reannounce()
			return nil
		}},
		{"policy-off", func() error { e.SetPolicy(nil); reannounce(); return nil }},
	}
	type state struct {
		set CatchmentSet
		ref map[string]refGroup
	}
	var states []state
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		set, err := Capture(e, dep, m, probes)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[string]refGroup{}
		for _, g := range set.Groups {
			ce, err := ExplainCatchment(e, dep, m, probes, g.Group)
			if err != nil {
				t.Fatal(err)
			}
			r := newRefGroup(e, ce)
			ref[g.Group] = r
			want := GroupView{Group: ce.Group, Prefix: ce.Prefix, Served: ce.Served, Site: ce.Site,
				SiteCity: ce.SiteCity, RTTMs: ce.RTTMs, InflationMs: ce.InflationMs, Class: ce.Class}
			got := g
			got.hops = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: capture %+v\nexplain %+v", st.name, got, want)
			}
			if len(g.hops) != len(ce.Exp.Hops) {
				t.Fatalf("%s %s: %d hop summaries, %d hops", st.name, g.Group, len(g.hops), len(ce.Exp.Hops))
			}
			for i := range ce.Exp.Hops {
				if g.hops[i] != r.summary(i) {
					t.Fatalf("%s %s hop %d: summary %+v, reference %+v", st.name, g.Group, i, g.hops[i], r.summary(i))
				}
			}
		}
		states = append(states, state{set, ref})
	}

	seen := map[MoveCause]int{}
	for i := 1; i < len(states); i++ {
		b, a := &states[i-1], &states[i]
		d, err := Diff(b.set, a.set)
		if err != nil {
			t.Fatal(err)
		}
		for _, mv := range d.Moves {
			cause, pivot := refAttribute(&b.set, &a.set, b.ref[mv.Group], a.ref[mv.Group])
			if mv.Cause != cause || mv.PivotASN != pivot {
				t.Fatalf("%s %s: diff says %s at %s, reference %s at %s", steps[i].name, mv.Group, mv.Cause, mv.PivotASN, cause, pivot)
			}
			seen[mv.Cause]++
		}
		t.Logf("%s: %d moves %v", steps[i].name, d.Moved, causeTally(d))
	}
	for _, c := range []MoveCause{CauseTieBreakShift, CausePolicyShift, CausePolicyFilter, CauseSiteWithdrawn, CauseSiteRestored} {
		if seen[c] == 0 {
			t.Errorf("no move attributed to %s across the scenario: %v", c, seen)
		}
	}
}

// crossRegionProbes returns the probes plus, per region, a copy of one of
// its probes placed at a metro whose own groups map to another region, so
// that metro is looked up under two prefixes in one capture. It picks
// metros whose nearest announced site differs between the two prefixes.
func crossRegionProbes(t *testing.T, e *bgp.Engine, dep *cdn.Deployment, probes []*atlas.Probe) []*atlas.Probe {
	t.Helper()
	keys := map[string]bool{}
	home := map[string]netip.Prefix{} // metro -> its own groups' prefix
	var cities []string
	for _, p := range probes {
		keys[p.GroupKey()] = true
		if r, ok := dep.RegionForCountry(p.Country); ok {
			if _, dup := home[p.City]; !dup {
				home[p.City] = r.Prefix
				cities = append(cities, p.City)
			}
		}
	}
	slices.Sort(cities)
	out := slices.Clone(probes)
	for _, r := range dep.Regions {
		i := slices.IndexFunc(probes, func(p *atlas.Probe) bool {
			pr, ok := dep.RegionForCountry(p.Country)
			return ok && pr.Prefix == r.Prefix
		})
		if i < 0 {
			continue
		}
		q := probes[i]
		for _, c := range cities {
			if home[c] == r.Prefix || keys[c+"|"+strconv.FormatUint(uint64(q.ASN), 10)] {
				continue
			}
			_, kmHere := nearestAnnouncedSite(e, dep, r.Prefix, c)
			_, kmHome := nearestAnnouncedSite(e, dep, home[c], c)
			if kmHere == kmHome {
				continue
			}
			x := *q
			x.ID, x.City = 1<<30+len(out), c
			keys[x.GroupKey()] = true
			out = append(out, &x)
			break
		}
	}
	if len(out) == len(probes) {
		t.Fatal("no metro has a different nearest site under two regions' prefixes")
	}
	return out
}

// TestRepresentative: the key-parsing lookup picks the lowest-ID probe
// whose GroupKey equals the key, and nothing for a key GroupKey never
// produces (a non-canonical ASN, a missing part).
func TestRepresentative(t *testing.T) {
	probes := []*atlas.Probe{{ID: 5, City: "AMS", ASN: 10077}, {ID: 2, City: "AMS", ASN: 10077}, {ID: 1, City: "AMS", ASN: 100}, {ID: 3, City: "FRA", ASN: 0}}
	for _, p := range probes {
		rep := representative(probes, p.GroupKey())
		if rep == nil || rep.GroupKey() != p.GroupKey() {
			t.Fatalf("%s: representative %+v", p.GroupKey(), rep)
		}
		for _, q := range probes {
			if q.GroupKey() == p.GroupKey() && q.ID < rep.ID {
				t.Fatalf("%s: representative %d, lower ID %d", p.GroupKey(), rep.ID, q.ID)
			}
		}
	}
	for _, k := range []string{"AMS|010077", "AMS|+10077", "AMS|10077|", "AMS|", "|10077", "AMS", "", "AMS|4294977373"} {
		if rep := representative(probes, k); rep != nil {
			t.Fatalf("%q matched probe %+v", k, rep)
		}
	}
}
