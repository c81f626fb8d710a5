// Package dynamics turns the simulator's one-shot routing snapshot into a
// timeline of routing events. The paper (§5–§6) evaluates regional anycast
// statically, but its operational-viability question hinges on behaviour
// under churn: regional deployments have fewer fallback sites per prefix
// than a global one, so a site outage or link failure moves (or strands)
// more of a prefix's catchment. This package provides the event model —
// site withdrawal/restore, single-link failure/repair, IXP outage, per-site
// re-announcement — a scenario DSL and seeded generator for schedules of
// such events, and the catchment snapshot/diff machinery the churn,
// failover-penalty, and blast-radius analyses are built on. Events are
// applied through the BGP engine's incremental reconvergence API, so a
// step costs work proportional to the event's blast radius, not to the
// size of the Internet.
package dynamics

import (
	"fmt"
	"net/netip"
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/topo"
	"anysim/internal/traffic"
)

// Kind enumerates routing event types.
type Kind int

const (
	// SiteDown withdraws a site's announcements from every prefix it
	// originates.
	SiteDown Kind = iota
	// SiteUp restores a previously withdrawn site.
	SiteUp
	// LinkDown fails a single inter-AS link.
	LinkDown
	// LinkUp repairs a failed link.
	LinkUp
	// IXPDown fails every peering link of one IXP (a facility outage).
	IXPDown
	// IXPUp repairs an IXP.
	IXPUp
	// Reannounce withdraws and immediately re-announces a site's prefixes
	// (a maintenance flap); routing returns to the pre-event state.
	Reannounce
	// FlashBegin starts a flash crowd: demand in one paper area scales by
	// Factor. Routing is untouched; internal/traffic reads the runner's
	// active flash state when evaluating load.
	FlashBegin
	// FlashEnd ends the flash crowd in an area.
	FlashEnd
)

var kindNames = map[Kind]string{
	SiteDown:   "site-down",
	SiteUp:     "site-up",
	LinkDown:   "link-down",
	LinkUp:     "link-up",
	IXPDown:    "ixp-down",
	IXPUp:      "ixp-up",
	Reannounce: "reannounce",
	FlashBegin: "flash-begin",
	FlashEnd:   "flash-end",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one routing event at a virtual tick. Exactly the fields the
// Kind needs are set: Site for site events and re-announcements, A/B for
// link events, IXP for IXP events, Area (and Factor for FlashBegin) for
// flash-crowd events.
type Event struct {
	At     int
	Kind   Kind
	Site   string
	A, B   topo.ASN
	IXP    string
	Area   geo.Area
	Factor float64
}

func (ev Event) String() string {
	switch ev.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("at %d %s %d %d", ev.At, ev.Kind, ev.A, ev.B)
	case IXPDown, IXPUp:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.IXP)
	case FlashBegin:
		return fmt.Sprintf("at %d %s %s %g", ev.At, ev.Kind, ev.Area, ev.Factor)
	case FlashEnd:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.Area)
	default:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.Site)
	}
}

// Scenario is a named, time-ordered event schedule.
type Scenario struct {
	Name   string
	Events []Event
}

// sorted returns the events in application order: by tick, declaration
// order within a tick.
func (s *Scenario) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Snapshot is the per-AS serving site for each of a deployment's prefixes
// at one instant.
type Snapshot map[netip.Prefix]map[topo.ASN]string

// Runner applies events for one deployment against a BGP engine. The
// deployment's resolved announcement plan is captured at construction so
// withdrawn sites are restored with their exact original announcements
// (including OnlyNeighbors allowlists).
type Runner struct {
	Engine *bgp.Engine
	Dep    *cdn.Deployment

	// Measurer and Probes enable the probe-level analyses (ProbeViews);
	// nil/empty leaves the AS-level machinery fully functional.
	Measurer *atlas.Measurer
	Probes   []*atlas.Probe

	// ExplainMoves enables classified churn reports: every Run step then
	// carries a glass.DiffReport attributing a provenance-backed cause to
	// each moved probe group, and per-move events are emitted on the trace.
	// Requires Measurer/Probes and an engine with provenance recording on;
	// Run fails fast otherwise rather than silently skipping the analysis.
	ExplainMoves bool

	// Series, when set, turns a scenario run into a flight recording: every
	// Run step samples reconvergence cost and catchment churn into the
	// tick-keyed ring buffers and takes a LoadStep, so experiments get
	// trajectory verdicts from the same plane the live server exposes. With
	// Eval and Model also set, the step records the full load plane
	// (per-site utilization/share/overload, per-region latency percentiles)
	// for the step's time bucket, with the runner's active flash crowds
	// folded in. Run is serial, so the recording is deterministic.
	Series *ts.DB
	Eval   *traffic.Evaluator
	Model  *traffic.Model

	prefixes []netip.Prefix                                   // sorted deployment prefixes
	siteAnns map[string]map[netip.Prefix]bgp.SiteAnnouncement // site ID -> prefix -> announcement
	flash    map[geo.Area]float64                             // active flash-crowd factors

	dobs runnerObs
}

// runnerObs bundles the runner's observability handles; the zero value is
// the disabled state. Run is serial, so every handle (and the tracer) sees
// deterministic values in deterministic order.
type runnerObs struct {
	steps  *obs.Counter   // dynamics.steps
	dirty  *obs.Histogram // dynamics.step.dirty (reconverged ASes per step)
	passes *obs.Histogram // dynamics.step.passes
	moved  *obs.Histogram // dynamics.step.moved (catchment pairs that changed site)
	lost   *obs.Histogram // dynamics.step.lost

	// Span site for one scenario step; reg carries the wall gate.
	reg    *obs.Registry
	stepTm obs.SpanTimer // dynamics.step

	tracer *obs.Tracer
	seq    int64 // steps applied across all Run calls (the scenario clock)
}

// spanActive reports whether step spans record anything on this runner.
func (r *Runner) spanActive() bool {
	return r.dobs.tracer.Enabled() || r.dobs.reg.WallEnabled()
}

// Instrument attaches a metrics registry and tracer to the runner. Either
// may be nil. Call before Run; not synchronized with a concurrent Run.
func (r *Runner) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	r.dobs = runnerObs{
		steps:  reg.Counter("dynamics.steps"),
		dirty:  reg.Histogram("dynamics.step.dirty", obs.Pow2Bounds(20)),
		passes: reg.Histogram("dynamics.step.passes", obs.Pow2Bounds(6)),
		moved:  reg.Histogram("dynamics.step.moved", obs.Pow2Bounds(20)),
		lost:   reg.Histogram("dynamics.step.lost", obs.Pow2Bounds(20)),
		reg:    reg,
		stepTm: reg.SpanTimer("dynamics.step"),
		tracer: tr,
		seq:    r.dobs.seq,
	}
}

// NewRunner captures the deployment's announcement plan. The deployment is
// assumed to be announced on the engine already (Deployment.Announce).
func NewRunner(e *bgp.Engine, dep *cdn.Deployment) *Runner {
	r := &Runner{Engine: e, Dep: dep, siteAnns: map[string]map[netip.Prefix]bgp.SiteAnnouncement{}, flash: map[geo.Area]float64{}}
	plan := dep.ResolvedAnnouncements(e.Topology())
	for prefix, anns := range plan {
		r.prefixes = append(r.prefixes, prefix)
		for _, a := range anns {
			m := r.siteAnns[a.Site]
			if m == nil {
				m = map[netip.Prefix]bgp.SiteAnnouncement{}
				r.siteAnns[a.Site] = m
			}
			m[prefix] = a
		}
	}
	sort.Slice(r.prefixes, func(i, j int) bool { return r.prefixes[i].String() < r.prefixes[j].String() })
	return r
}

// Prefixes returns the deployment's announced prefixes in sorted order.
func (r *Runner) Prefixes() []netip.Prefix { return r.prefixes }

// sitePrefixes returns the prefixes a site announces, in sorted order.
func (r *Runner) sitePrefixes(site string) []netip.Prefix {
	m := r.siteAnns[site]
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Apply executes one event against the engine and topology.
func (r *Runner) Apply(ev Event) error {
	tp := r.Engine.Topology()
	switch ev.Kind {
	case SiteDown:
		return r.siteDown(ev.Site)
	case SiteUp:
		return r.siteUp(ev.Site)
	case Reannounce:
		if err := r.siteDown(ev.Site); err != nil {
			return err
		}
		return r.siteUp(ev.Site)
	case LinkDown, LinkUp:
		li, ok := tp.LinkIndexBetween(ev.A, ev.B)
		if !ok {
			return fmt.Errorf("dynamics: no link between %d and %d", ev.A, ev.B)
		}
		enable := ev.Kind == LinkUp
		if tp.LinkEnabled(li) == enable {
			return nil // already in the desired state
		}
		if err := tp.SetLinkEnabled(li, enable); err != nil {
			return err
		}
		return r.Engine.ReconvergeLinks([]int{li})
	case FlashBegin:
		if ev.Factor <= 0 {
			return fmt.Errorf("dynamics: flash-begin %s with non-positive factor %g", ev.Area, ev.Factor)
		}
		r.flash[ev.Area] = ev.Factor
		return nil
	case FlashEnd:
		if _, ok := r.flash[ev.Area]; !ok {
			return fmt.Errorf("dynamics: flash-end %s with no active flash crowd", ev.Area)
		}
		delete(r.flash, ev.Area)
		return nil
	case IXPDown, IXPUp:
		lis := tp.LinksOfIXP(ev.IXP)
		if len(lis) == 0 {
			return fmt.Errorf("dynamics: IXP %q has no links", ev.IXP)
		}
		enable := ev.Kind == IXPUp
		changed := make([]int, 0, len(lis))
		for _, li := range lis {
			if tp.LinkEnabled(li) == enable {
				continue
			}
			if err := tp.SetLinkEnabled(li, enable); err != nil {
				return err
			}
			changed = append(changed, li)
		}
		return r.Engine.ReconvergeLinks(changed)
	default:
		return fmt.Errorf("dynamics: unknown event kind %v", ev.Kind)
	}
}

func (r *Runner) siteDown(site string) error {
	if _, ok := r.siteAnns[site]; !ok {
		return fmt.Errorf("dynamics: deployment %s has no site %q", r.Dep.Name, site)
	}
	for _, p := range r.sitePrefixes(site) {
		if err := r.Engine.WithdrawSite(p, site); err != nil {
			return fmt.Errorf("dynamics: site-down %s: %w", site, err)
		}
	}
	return nil
}

func (r *Runner) siteUp(site string) error {
	anns, ok := r.siteAnns[site]
	if !ok {
		return fmt.Errorf("dynamics: deployment %s has no site %q", r.Dep.Name, site)
	}
	for _, p := range r.sitePrefixes(site) {
		if err := r.Engine.AnnounceSite(p, anns[p]); err != nil {
			return fmt.Errorf("dynamics: site-up %s: %w", site, err)
		}
	}
	return nil
}

// ActiveFlash returns the in-effect flash-crowd demand factors per area.
// The returned map is a copy.
func (r *Runner) ActiveFlash() map[geo.Area]float64 {
	out := make(map[geo.Area]float64, len(r.flash))
	for a, f := range r.flash {
		out[a] = f
	}
	return out
}

// Snapshot captures the per-AS catchment of every deployment prefix.
func (r *Runner) Snapshot() Snapshot {
	out := make(Snapshot, len(r.prefixes))
	for _, p := range r.prefixes {
		out[p] = r.Engine.Catchments(p)
	}
	return out
}

// Step is the outcome of applying one event.
type Step struct {
	Event Event
	// Churn aggregates per-AS catchment changes across all prefixes.
	Churn ChurnStats
	// Stats reports the reconvergence work of the event's last engine
	// operation (a site event touching several prefixes reports the last).
	Stats bgp.ReconvergeStats
	// Moves is the classified probe-group churn report of this step (nil
	// unless the runner's ExplainMoves mode is on).
	Moves *glass.DiffReport
}

// Run applies a scenario in time order, diffing catchments around every
// event. The returned steps are in application order.
func (r *Runner) Run(sc *Scenario) ([]Step, error) {
	explain := r.ExplainMoves
	if explain {
		if r.Measurer == nil || len(r.Probes) == 0 {
			return nil, fmt.Errorf("dynamics: ExplainMoves requires Measurer and Probes")
		}
		if !r.Engine.ProvenanceEnabled() {
			return nil, fmt.Errorf("dynamics: ExplainMoves requires an engine with provenance recording on (bgp.EngineConfig.Provenance)")
		}
	}
	steps := make([]Step, 0, len(sc.Events))
	pre := r.Snapshot()
	var preCap glass.CatchmentSet
	if explain {
		var err error
		if preCap, err = glass.Capture(r.Engine, r.Dep, r.Measurer, r.Probes); err != nil {
			return nil, fmt.Errorf("dynamics: capture: %w", err)
		}
	}
	for _, ev := range sc.sorted() {
		// Each step is spanned, clocked by the scenario step it will become
		// (seq+1 — observeStep advances the clock when it emits the step
		// event) and its simulated tick. The engine's reconvergence spans
		// nest inside it.
		var ssp obs.SpanScope
		if r.spanActive() {
			ssp = obs.StartSpan(r.dobs.tracer, r.dobs.reg, r.dobs.stepTm, "dynamics", "step",
				obs.Coord{Key: "step", V: r.dobs.seq + 1}, obs.Coord{Key: "tick", V: int64(ev.At)})
		}
		if err := r.Apply(ev); err != nil {
			ssp.End()
			return steps, fmt.Errorf("dynamics: %s (scenario %s): %w", ev, sc.Name, err)
		}
		post := r.Snapshot()
		step := Step{
			Event: ev,
			Churn: Diff(pre, post),
			Stats: r.Engine.LastReconvergeStats(),
		}
		if explain {
			postCap, err := glass.Capture(r.Engine, r.Dep, r.Measurer, r.Probes)
			if err != nil {
				ssp.End()
				return steps, fmt.Errorf("dynamics: capture after %s: %w", ev, err)
			}
			rep, err := glass.Diff(preCap, postCap)
			if err != nil {
				ssp.End()
				return steps, fmt.Errorf("dynamics: diff after %s: %w", ev, err)
			}
			step.Moves = &rep
			preCap = postCap
		}
		steps = append(steps, step)
		r.observeStep(sc, step)
		if r.Series != nil {
			tick := int64(ev.At)
			// Stale stats on flash steps (server: zeros); the benchmark's replay digest pins them.
			r.Series.SampleReconverge(tick, step.Stats.Dirty, step.Stats.Passes)
			r.Series.SampleChurn(tick, step.Churn.Moved, step.Churn.Lost)
			r.LoadStep(tick, r.Engine)
		}
		if ssp.Active() {
			ssp.End(obs.Str("event", step.Event.String()), obs.Int("dirty", int64(step.Stats.Dirty)))
		}
		pre = post
	}
	return steps, nil
}

// Demand returns a time bucket's demand matrix (Model required) with the
// active flash crowds folded in, in sorted area order, so every caller
// builds the same matrix from the same flash state.
func (r *Runner) Demand(bucket int) traffic.Matrix {
	mat := r.Model.Matrix(bucket)
	areas := make([]geo.Area, 0, len(r.flash))
	for a := range r.flash {
		areas = append(areas, a)
	}
	sort.Slice(areas, func(i, j int) bool { return areas[i] < areas[j] })
	for _, a := range areas {
		mat = r.Model.FlashCrowd(mat, a, r.flash[a])
	}
	return mat
}

// LoadStep is the load plane's one step, shared by Run, the server's
// publish path and the experiments: with Eval and Model set it evaluates
// the tick's Demand on e (the live engine or a published fork) and samples
// the report into Series; it then evaluates Series' SLO rules, returning
// the transitions. The report is nil without Eval and Model.
func (r *Runner) LoadStep(tick int64, e *bgp.Engine) (*traffic.LoadReport, []ts.Transition) {
	var rep *traffic.LoadReport
	if r.Eval != nil && r.Model != nil {
		rep = r.Eval.EvaluateOn(e, r.Demand(int(tick%int64(r.Model.Buckets()))))
		r.Series.SampleLoad(tick, r.Model, rep, r.Eval.Config().SoftUtil)
	}
	return rep, r.Series.Eval(tick)
}

// observeStep records one applied event's reconvergence cost and catchment
// churn, and emits the step on the trace clocked by (step, tick).
func (r *Runner) observeStep(sc *Scenario, st Step) {
	r.dobs.steps.Inc()
	r.dobs.dirty.Observe(int64(st.Stats.Dirty))
	r.dobs.passes.Observe(int64(st.Stats.Passes))
	r.dobs.moved.Observe(int64(st.Churn.Moved))
	r.dobs.lost.Observe(int64(st.Churn.Lost))
	if !r.dobs.tracer.Enabled() {
		return
	}
	r.dobs.seq++
	r.dobs.tracer.Emit(obs.Event{
		Scope: "dynamics",
		Name:  "step",
		Clock: []obs.Coord{{Key: "step", V: r.dobs.seq}, {Key: "tick", V: int64(st.Event.At)}},
		Attrs: []obs.Attr{
			obs.Str("scenario", sc.Name),
			obs.Str("event", st.Event.String()),
			obs.Int("dirty", int64(st.Stats.Dirty)),
			obs.Int("passes", int64(st.Stats.Passes)),
			obs.Bool("full", st.Stats.Full),
			obs.Int("moved", int64(st.Churn.Moved)),
			obs.Int("lost", int64(st.Churn.Lost)),
			obs.Int("gained", int64(st.Churn.Gained)),
		},
	})
	if st.Moves == nil {
		return
	}
	// Per-move classified churn: one event per moved probe group, in the
	// report's (group-sorted) order, on the same scenario clock.
	for _, m := range st.Moves.Moves {
		r.dobs.tracer.Emit(obs.Event{
			Scope: "glass",
			Name:  "move",
			Clock: []obs.Coord{{Key: "step", V: r.dobs.seq}, {Key: "tick", V: int64(st.Event.At)}},
			Attrs: []obs.Attr{
				obs.Str("group", m.Group),
				obs.Str("prefix", m.Prefix),
				obs.Str("from", m.FromSite),
				obs.Str("to", m.ToSite),
				obs.Float("delta-ms", m.DeltaRTT),
				obs.Str("cause", string(m.Cause)),
				obs.Int("pivot", int64(m.PivotASN)),
			},
		})
	}
}
