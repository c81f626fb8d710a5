package experiments

import (
	"fmt"
	"sort"

	"anysim/internal/dynamics"
	"anysim/internal/obs/ts"
	"anysim/internal/stats"
	"anysim/internal/topo"
	"anysim/internal/traffic"
)

// DynamicsEventResult is one fault's impact on one deployment.
type DynamicsEventResult struct {
	Event string
	// Churn is the AS-level catchment churn across the deployment's
	// prefixes.
	Churn dynamics.ChurnStats
	// GroupsChanged / Groups count probe groups whose service changed.
	GroupsChanged, Groups int
	// Penalties are per-probe failover RTT deltas (ms) for probes that
	// switched site and stayed served.
	Penalties []float64
}

// DynamicsData is the X2 result: the same fault schedule applied to the
// regional (Imperva-6) and global (Imperva-NS) deployments.
type DynamicsData struct {
	Scenario string
	Regional []DynamicsEventResult
	Global   []DynamicsEventResult
	// MeanBlastRegional/Global average the per-event changed fractions.
	MeanBlastRegional, MeanBlastGlobal float64
	// OverloadAlertsRegional/Global count overload-SLO firings over the
	// fault trajectory (one load sample per fault while it is in effect):
	// the trajectory verdict, not just the endpoint diff.
	OverloadAlertsRegional, OverloadAlertsGlobal int
	// PeakUtilRegional/Global are the worst per-site utilizations seen at
	// any fault tick.
	PeakUtilRegional, PeakUtilGlobal float64
}

// Dynamics (X2) measures behaviour under churn, the operational question
// the paper's static evaluation leaves open: with fewer fallback sites per
// prefix, how much more does a regional deployment suffer from the same
// faults than a global one? An identical self-restoring fault schedule —
// site outages at cities both networks serve, transit-link failures, an
// IXP outage — is applied to Imperva-6 (regional) and Imperva-NS (global)
// through incremental reconvergence, diffing per-AS catchments and probe
// service around every event. Site outages are physical: the site
// withdraws from both networks at once, and each network's churn is
// measured against its own prefixes. The scenario repairs every fault, so
// the world is bit-identical to its initial state on return.
func Dynamics(ctx *Context) (*Report, error) {
	w := ctx.World
	reg := dynamics.NewRunner(w.Engine, w.Imperva.IM6)
	glob := dynamics.NewRunner(w.Engine, w.Imperva.NS)
	probes := w.Platform.Retained()
	for _, r := range []*dynamics.Runner{reg, glob} {
		r.Measurer = w.Measurer
		r.Probes = probes
	}

	sc, err := dynamicsSchedule(w.Topo, reg, glob)
	if err != nil {
		return nil, err
	}

	// Flight recorders for the trajectory verdict: one load step per fault
	// tick (fault applied, then repaired) through the same overload SLO
	// rule the serve plane uses, so X2 reports not only how catchments end
	// up but whether the surviving sites stayed inside capacity while each
	// fault was in effect.
	overload, err := ts.ParseRule("slo overload: load.max_util > 1 for 1 ticks")
	if err != nil {
		return nil, fmt.Errorf("experiments: X2: %w", err)
	}
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	for _, r := range []*dynamics.Runner{reg, glob} {
		r.Series = ts.New(ts.Config{Rules: []ts.Rule{overload}})
		r.Eval = traffic.NewEvaluator(w.Engine, r.Dep, model, traffic.CapacityConfig{})
		r.Model = model
	}

	data := &DynamicsData{Scenario: sc.Name}
	faults := sc.Events
	for i := 0; i < len(faults); i += 2 {
		down, up := faults[i], faults[i+1]
		regPre, globPre := reg.Snapshot(), glob.Snapshot()
		regPreV, globPreV := reg.ProbeViews(), glob.ProbeViews()
		// Site faults are physical outages shared by both networks; link
		// and IXP faults are topological, and the second Apply is a no-op.
		if err := reg.Apply(down); err != nil {
			return nil, fmt.Errorf("experiments: X2 %s: %w", down, err)
		}
		if err := glob.Apply(down); err != nil {
			return nil, fmt.Errorf("experiments: X2 %s: %w", down, err)
		}
		regPostV, globPostV := reg.ProbeViews(), glob.ProbeViews()

		regRes := DynamicsEventResult{
			Event:     down.String(),
			Churn:     dynamics.Diff(regPre, reg.Snapshot()),
			Penalties: dynamics.Penalties(regPreV, regPostV),
		}
		regRes.GroupsChanged, regRes.Groups = reg.GroupChurn(regPreV, regPostV)
		globRes := DynamicsEventResult{
			Event:     down.String(),
			Churn:     dynamics.Diff(globPre, glob.Snapshot()),
			Penalties: dynamics.Penalties(globPreV, globPostV),
		}
		globRes.GroupsChanged, globRes.Groups = glob.GroupChurn(globPreV, globPostV)
		data.Regional = append(data.Regional, regRes)
		data.Global = append(data.Global, globRes)

		// One load step while the fault holds; the post-repair step below
		// resolves any alert it raised.
		reg.LoadStep(int64(down.At), w.Engine)
		glob.LoadStep(int64(down.At), w.Engine)

		if err := reg.Apply(up); err != nil {
			return nil, fmt.Errorf("experiments: X2 %s: %w", up, err)
		}
		if err := glob.Apply(up); err != nil {
			return nil, fmt.Errorf("experiments: X2 %s: %w", up, err)
		}
		reg.LoadStep(int64(up.At), w.Engine)
		glob.LoadStep(int64(up.At), w.Engine)
	}

	var regPens, globPens []float64
	for i := range data.Regional {
		data.MeanBlastRegional += data.Regional[i].Churn.ChangedFraction()
		data.MeanBlastGlobal += data.Global[i].Churn.ChangedFraction()
		regPens = append(regPens, data.Regional[i].Penalties...)
		globPens = append(globPens, data.Global[i].Penalties...)
	}
	n := float64(len(data.Regional))
	data.MeanBlastRegional /= n
	data.MeanBlastGlobal /= n

	tb := &stats.Table{Header: []string{"event", "IM6 moved/lost", "IM6 blast", "IM6 groups", "NS moved/lost", "NS blast", "NS groups"}}
	for i := range data.Regional {
		r, g := data.Regional[i], data.Global[i]
		tb.AddRow(r.Event,
			fmt.Sprintf("%d/%d", r.Churn.Moved, r.Churn.Lost),
			fmt.Sprintf("%.2f%%", 100*r.Churn.ChangedFraction()),
			fmt.Sprintf("%d/%d", r.GroupsChanged, r.Groups),
			fmt.Sprintf("%d/%d", g.Churn.Moved, g.Churn.Lost),
			fmt.Sprintf("%.2f%%", 100*g.Churn.ChangedFraction()),
			fmt.Sprintf("%d/%d", g.GroupsChanged, g.Groups))
	}
	countFirings := func(db *ts.DB) int {
		n := 0
		for _, tr := range db.History() {
			if tr.State == ts.StateFiring {
				n++
			}
		}
		return n
	}
	peakUtil := func(db *ts.DB) float64 {
		pts, _ := db.Query("load.max_util", 0, 1<<62, 0)
		peak := 0.0
		for _, p := range pts {
			if p.V > peak {
				peak = p.V
			}
		}
		return peak
	}
	data.OverloadAlertsRegional = countFirings(reg.Series)
	data.OverloadAlertsGlobal = countFirings(glob.Series)
	data.PeakUtilRegional = peakUtil(reg.Series)
	data.PeakUtilGlobal = peakUtil(glob.Series)

	text := tb.String()
	text += fmt.Sprintf("\nmean blast radius: regional %.2f%% vs global %.2f%%\n",
		100*data.MeanBlastRegional, 100*data.MeanBlastGlobal)
	text += fmt.Sprintf("trajectory verdict: overload SLO fired %d time(s) regional (peak util %.2f) vs %d global (peak util %.2f)\n",
		data.OverloadAlertsRegional, data.PeakUtilRegional,
		data.OverloadAlertsGlobal, data.PeakUtilGlobal)
	text += fmt.Sprintf("failover RTT penalty p50/p90 (ms): regional %s/%s (n=%d) vs global %s/%s (n=%d)\n",
		stats.Fmt1(stats.Percentile(regPens, 50)), stats.Fmt1(stats.Percentile(regPens, 90)), len(regPens),
		stats.Fmt1(stats.Percentile(globPens, 50)), stats.Fmt1(stats.Percentile(globPens, 90)), len(globPens))

	series := map[string][]stats.Point{
		"penalty-cdf-regional": penaltyCDF(regPens),
		"penalty-cdf-global":   penaltyCDF(globPens),
		"max-util-regional":    utilTrajectory(reg.Series),
		"max-util-global":      utilTrajectory(glob.Series),
	}
	return &Report{Text: text, Data: data, Series: series}, nil
}

// dynamicsSchedule builds the deterministic self-restoring fault schedule:
// three site outages at cities both deployments serve, two tier-2 transit
// link failures, and one IXP outage, each repaired five ticks later.
func dynamicsSchedule(tp *topo.Topology, reg, glob *dynamics.Runner) (*dynamics.Scenario, error) {
	nsSites := map[string]bool{}
	for _, s := range glob.Dep.Sites {
		nsSites[s.ID] = true
	}
	var shared []string
	for _, s := range reg.Dep.Sites {
		if nsSites[s.ID] {
			shared = append(shared, s.ID)
		}
	}
	sort.Strings(shared)
	if len(shared) < 3 {
		return nil, fmt.Errorf("experiments: X2: only %d sites shared between %s and %s", len(shared), reg.Dep.Name, glob.Dep.Name)
	}
	sites := []string{shared[0], shared[len(shared)/2], shared[len(shared)-1]}

	var linkIdx []int
	for i, l := range tp.Links() {
		if l.Type != topo.CustomerToProvider {
			continue
		}
		if tp.MustAS(l.A).Tier == topo.Tier2 && tp.MustAS(l.B).Tier == topo.Tier1 {
			linkIdx = append(linkIdx, i)
			if len(linkIdx) == 2 {
				break
			}
		}
	}
	if len(linkIdx) < 2 {
		return nil, fmt.Errorf("experiments: X2: fewer than two tier-2 transit links")
	}

	ixps := tp.IXPs()
	ids := make([]string, 0, len(ixps))
	for _, ix := range ixps {
		ids = append(ids, ix.ID)
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: X2: world has no IXPs")
	}

	sc := &dynamics.Scenario{Name: "x2-faults"}
	at := 1
	add := func(down, up dynamics.Event) {
		down.At, up.At = at, at+5
		sc.Events = append(sc.Events, down, up)
		at += 10
	}
	for _, s := range sites {
		add(dynamics.Event{Kind: dynamics.SiteDown, Site: s}, dynamics.Event{Kind: dynamics.SiteUp, Site: s})
	}
	links := tp.Links()
	for _, li := range linkIdx {
		l := links[li]
		add(dynamics.Event{Kind: dynamics.LinkDown, A: l.A, B: l.B}, dynamics.Event{Kind: dynamics.LinkUp, A: l.A, B: l.B})
	}
	add(dynamics.Event{Kind: dynamics.IXPDown, IXP: ids[0]}, dynamics.Event{Kind: dynamics.IXPUp, IXP: ids[0]})
	return sc, nil
}

// utilTrajectory renders a recorder's max-utilization series as plottable
// (tick, util) points.
func utilTrajectory(db *ts.DB) []stats.Point {
	pts, _ := db.Query("load.max_util", 0, 1<<62, 0)
	out := make([]stats.Point, 0, len(pts))
	for _, p := range pts {
		out = append(out, stats.Point{X: float64(p.Tick), Y: p.V})
	}
	return out
}

// penaltyCDF renders a sorted sample set as CDF points.
func penaltyCDF(vals []float64) []stats.Point {
	if len(vals) == 0 {
		return nil
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := make([]stats.Point, 0, len(s))
	for i, v := range s {
		out = append(out, stats.Point{X: v, Y: float64(i+1) / float64(len(s))})
	}
	return out
}
