package traffic

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"anysim/internal/bgp"
	"anysim/internal/obs"
	"anysim/internal/policy"
	"anysim/internal/topo"
)

// ActionKind is a BGP-level steering knob.
type ActionKind uint8

// The Tangled testbed's traffic-engineering levers, mildest first.
const (
	// ActionPrepend escalates AS-path prepending on the overloaded site's
	// announcement, deterring length-comparing neighbours toward siblings.
	ActionPrepend ActionKind = iota
	// ActionSelective restricts the overloaded site to transit-only
	// announcement (the dailycatch configuration, generalized): peers stop
	// hearing the site and fail over along their other routes.
	ActionSelective
	// ActionCrossAnnounce announces the crowded regional prefix from an
	// underloaded site outside the region — the regional-anycast-only move
	// that adds serving capacity to the prefix.
	ActionCrossAnnounce
	// ActionPrependWave prepends every in-region announcer of the prefix
	// one level deeper in a single coordinated step. Relative path lengths
	// within the region are preserved, so the region's load balance is
	// undisturbed, but every cross-announced helper outside the region
	// becomes one hop more attractive to length-comparing clients. This is
	// the only way to drain a saturated region: pushing sites one at a
	// time just floods the overloaded siblings first. Like cross-announce
	// it needs a prefix owned by one region, so a global deployment's
	// shared prefix cannot express it.
	ActionPrependWave
	// ActionScopedAnnounce re-announces the overloaded site's prefix with
	// the well-known no-peer-metro community for the site's own metro:
	// same-metro public-peer and route-server sessions stop hearing the
	// route, shedding exactly the local peering catchment while transit
	// keeps carrying it — the communities-driven mild sibling of the
	// transit-only knob. Requires an engine with a policy layer configured
	// (the scope community is inert without one).
	ActionScopedAnnounce
)

var actionNames = map[ActionKind]string{
	ActionPrepend:        "prepend",
	ActionSelective:      "transit-only",
	ActionCrossAnnounce:  "cross-announce",
	ActionPrependWave:    "prepend-wave",
	ActionScopedAnnounce: "scoped-announce",
}

// String returns the knob's name.
func (k ActionKind) String() string {
	if s, ok := actionNames[k]; ok {
		return s
	}
	return "unknown"
}

// Action is one applied steering step and its measured outcome.
type Action struct {
	Kind    ActionKind
	Prefix  netip.Prefix
	Site    string // the site whose announcement changed
	Target  string // overloaded site being relieved (== Site except cross-announce)
	Prepend int    // resulting prepend count (ActionPrepend)
	Detail  string

	// Outcome, filled after the routing system reconverges.
	UtilBefore float64 // target site utilization before the action
	UtilAfter  float64
	ShedRate   float64 // demand moved off the target site
	MovedRate  float64 // total demand that changed serving site
	// RTTCostMs is the demand-weighted mean propagation-RTT increase over
	// the groups the action moved: the latency price of the shed.
	RTTCostMs float64
}

// String renders the action for reports.
func (a Action) String() string {
	s := fmt.Sprintf("%-14s %s", a.Kind, a.Site)
	if a.Kind == ActionPrepend {
		s = fmt.Sprintf("%s x%d", s, a.Prepend)
	}
	if a.Kind != ActionPrependWave && a.Target != a.Site {
		s = fmt.Sprintf("%s (relieving %s)", s, a.Target)
	}
	return s
}

// SteeringConfig bounds the greedy resolution loop.
type SteeringConfig struct {
	// MaxActions caps the number of steering steps per Resolve call.
	// Default 32.
	MaxActions int
	// MaxPrepend caps the prepend ladder. Default bgp.MaxPrepend.
	MaxPrepend int
	// AllowSelective enables transit-only announcement configs.
	AllowSelective bool
	// AllowCrossAnnounce enables regional cross-announcement shifts. Only
	// meaningful for regional deployments: with a single global prefix
	// every site already announces it.
	AllowCrossAnnounce bool
	// AllowScoped enables community-scoped announcements ("this prefix,
	// but not to peers in metro X"). Candidates are only generated when
	// the evaluator's engine has a policy layer configured.
	AllowScoped bool
	// Workers bounds the candidate-trial worker pool: each round's
	// candidates are applied and evaluated concurrently on per-candidate
	// engine forks. 0 means GOMAXPROCS. Results are bit-identical at any
	// worker count — the winner is selected deterministically (lowest
	// excess, ties broken by candidate order) and only the winner touches
	// the real engine.
	Workers int
	// Metrics, when set, receives the steering loop's counters and
	// histograms (rounds, trials, commits, tabu hits, rewinds).
	Metrics *obs.Registry
	// Tracer, when set, receives structured steering events (trial, commit,
	// rewind) clocked by (resolve, round, trial) — the steering loop's
	// debugging channel. Events are emitted from the serial Resolve loop in
	// candidate order, so streams are deterministic at any Workers setting.
	Tracer *obs.Tracer
}

func (c SteeringConfig) withDefaults() SteeringConfig {
	if c.MaxActions == 0 {
		c.MaxActions = 32
	}
	if c.MaxPrepend == 0 {
		c.MaxPrepend = bgp.MaxPrepend
	}
	return c
}

// SteeringResult is the outcome of one Resolve run.
type SteeringResult struct {
	Actions []Action
	// Initial and Final are the load reports before and after steering.
	Initial, Final *LoadReport
	// Resolved reports whether no site is overloaded in Final.
	Resolved bool
}

// Steerer drives the BGP knobs to resolve overload, reusing the engine's
// incremental reconvergence for each step. Reset restores the deployment's
// original announcements bit-identically (full recompute is deterministic).
type Steerer struct {
	Eval *Evaluator
	cfg  SteeringConfig

	orig map[netip.Prefix][]bgp.SiteAnnouncement
	cur  map[netip.Prefix][]bgp.SiteAnnouncement

	sobs steerObs
}

// steerObs bundles the steering loop's cached observability handles; the
// zero value is the disabled state. All fields are touched only from the
// serial Resolve path, so even the gauge is deterministic.
type steerObs struct {
	rounds   *obs.Counter   // steer.rounds
	trials   *obs.Counter   // steer.trials
	actions  *obs.Counter   // steer.actions (committed steps)
	tabuHits *obs.Counter   // steer.tabu_hits (candidates suppressed by tabu)
	rewinds  *obs.Counter   // steer.rewinds
	excess   *obs.Gauge     // steer.excess (objective after last commit)
	perRound *obs.Histogram // steer.round.trials

	// Span sites of the resolution loop; reg carries the wall gate.
	reg       *obs.Registry
	resolveTm obs.SpanTimer // steer.resolve: one whole Resolve call
	trialsTm  obs.SpanTimer // steer.round.trial_phase: one concurrent trial round
	commitTm  obs.SpanTimer // steer.round.commit: applying the winner to the real engine

	resolveSeq int64 // Resolve invocations on this steerer (serial)
}

// spanActive reports whether steering spans record anything; checked before
// building clock coordinates so uninstrumented Resolves stay alloc-free.
func (s *Steerer) spanActive() bool {
	return s.cfg.Tracer.Enabled() || s.sobs.reg.WallEnabled()
}

// NewSteerer captures the deployment's resolved announcements as the
// restore point.
func NewSteerer(ev *Evaluator, cfg SteeringConfig) *Steerer {
	s := &Steerer{Eval: ev, cfg: cfg.withDefaults()}
	s.orig = ev.Dep.ResolvedAnnouncements(ev.Engine.Topology())
	s.cur = copyAnns(s.orig)
	if reg := s.cfg.Metrics; reg != nil {
		s.sobs = steerObs{
			rounds:   reg.Counter("steer.rounds"),
			trials:   reg.Counter("steer.trials"),
			actions:  reg.Counter("steer.actions"),
			tabuHits: reg.Counter("steer.tabu_hits"),
			rewinds:  reg.Counter("steer.rewinds"),
			excess:   reg.Gauge("steer.excess"),
			perRound: reg.Histogram("steer.round.trials", obs.Pow2Bounds(3)),

			reg:       reg,
			resolveTm: reg.SpanTimer("steer.resolve"),
			trialsTm:  reg.SpanTimer("steer.round.trial_phase"),
			commitTm:  reg.SpanTimer("steer.round.commit"),
		}
	}
	return s
}

func copyAnns(in map[netip.Prefix][]bgp.SiteAnnouncement) map[netip.Prefix][]bgp.SiteAnnouncement {
	out := make(map[netip.Prefix][]bgp.SiteAnnouncement, len(in))
	for p, anns := range in {
		out[p] = append([]bgp.SiteAnnouncement(nil), anns...)
	}
	return out
}

// Reset re-announces the original configuration for every deployment
// prefix, restoring routing state bit-identically. Prefixes are restored
// in sorted order so the engine's traced operation sequence is the same on
// every run (map iteration order would leak into the trace otherwise).
func (s *Steerer) Reset() error {
	prefixes := make([]netip.Prefix, 0, len(s.orig))
	for p := range s.orig {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, func(a, b netip.Prefix) int { return strings.Compare(a.String(), b.String()) })
	for _, p := range prefixes {
		if err := s.Eval.Engine.Announce(p, s.orig[p]); err != nil {
			return fmt.Errorf("traffic: reset %s: %w", p, err)
		}
	}
	s.cur = copyAnns(s.orig)
	return nil
}

// Resolution loop tuning. A flash crowd that saturates a whole region has
// no single-action fix: cross-announcements add capacity without moving
// traffic, and a prepend only pays off after earlier steps opened spare
// room for its shed to land in. So each round trials the candidate knobs
// of the worst few overloaded sites and commits the one with the lowest
// resulting total excess — even when that is worse than the current state,
// because evacuating a big site floods its small siblings before later
// prepends push the flood out to cross-announced helpers, and a descent
// that refuses the first step never crosses that valley. The tabu set
// keeps the walk from cycling, the loop stops once a stretch of rounds
// brings no new minimum, and Resolve rewinds to the best state seen.
const (
	trialsPerRound = 6
	stallLimit     = 48
	// stallRestart is how many stalled rounds the walk may drift before
	// being pulled back to the best state seen. The tabu set survives the
	// rewind, so each restart explores a different branch out of that
	// basin instead of retracing the previous one.
	stallRestart = 8
)

// Resolve runs the steering loop against one demand matrix: while any
// site is overloaded and budget remains, trial one candidate knob for each
// of the worst trialsPerRound overloaded sites — every candidate is applied
// and evaluated concurrently on its own engine fork (see trialRound) — then
// commit the trial that minimizes total excess demand (demand above
// capacity, summed over sites) to the real engine via incremental
// reconvergence. A worst-site-only greedy oscillates here — prepending the
// worst site refills a previously drained sibling, and uniform prepend
// waves recreate the original catchment. The engine is left in the steered
// state; call Reset to unwind.
func (s *Steerer) Resolve(mat Matrix) (*SteeringResult, error) {
	// The whole Resolve, each concurrent trial round, and each winner
	// application are spanned for the profiler. The commit span wraps
	// s.apply, so the engine's reconvergence spans nest inside it. Spans
	// live on the serial Resolve timeline only — the trial forks never
	// trace — so span-bearing traces stay deterministic at any Workers.
	s.sobs.resolveSeq++
	spans := s.spanActive()
	var rsp obs.SpanScope
	if spans {
		rsp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.resolveTm, "steer", "resolve",
			obs.Coord{Key: "resolve", V: s.sobs.resolveSeq})
	}
	rep := s.Eval.Evaluate(mat)
	res := &SteeringResult{Initial: rep}
	bestExcess := totalExcess(rep)
	bestLen := 0
	stall := 0
	round := int64(0)
	// Tabu memory: each exact transition is committed at most once per
	// Resolve. Plateau acceptance would otherwise happily cycle a site
	// between two prepend levels until the budget runs out.
	accepted := map[string]bool{}
	for len(res.Actions) < s.cfg.MaxActions && stall < stallLimit {
		overloads := rep.Overloads()
		if len(overloads) == 0 {
			break
		}
		cands := s.roundCands(rep, overloads, accepted)
		var tsp obs.SpanScope
		if spans {
			tsp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.trialsTm, "steer", "trials",
				obs.Coord{Key: "resolve", V: s.sobs.resolveSeq}, obs.Coord{Key: "round", V: round + 1})
		}
		trials, err := s.trialRound(mat, cands)
		if err != nil {
			tsp.End()
			rsp.End()
			return nil, err
		}
		if tsp.Active() {
			tsp.End(obs.Int("cands", int64(len(cands))))
		}
		round++
		s.sobs.rounds.Inc()
		s.sobs.trials.Add(int64(len(cands)))
		s.sobs.perRound.Observe(int64(len(cands)))
		// Winner selection matches the serial walk exactly: the first
		// strict minimum in candidate order. Trial events (and the text
		// lines rendered from them) are emitted here, after the round, in
		// candidate order — not goroutine completion order.
		best := -1
		for i := range trials {
			s.traceTrial(round, int64(i), cands[i], trials[i].exc)
			if best < 0 || trials[i].exc < trials[best].exc {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Apply the winner to the real engine; reconvergence is
		// deterministic, so it lands in the trialled state. The losing
		// forks are simply dropped — no rollback churn.
		act := cands[best]
		var csp obs.SpanScope
		if spans {
			// Named "apply" so the span does not shadow the flat "commit"
			// outcome event traceCommit emits below.
			csp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.commitTm, "steer", "apply",
				obs.Coord{Key: "resolve", V: s.sobs.resolveSeq}, obs.Coord{Key: "round", V: round})
		}
		if err := s.apply(act); err != nil {
			csp.End()
			rsp.End()
			return nil, err
		}
		csp.End()
		after := trials[best].after
		if sl, ok := rep.SiteLoadByID(act.Target); ok {
			act.UtilBefore = sl.Utilization()
		}
		if sl, ok := after.SiteLoadByID(act.Target); ok {
			act.UtilAfter = sl.Utilization()
			if before, ok2 := rep.SiteLoadByID(act.Target); ok2 {
				act.ShedRate = before.Demand - sl.Demand
			}
		}
		act.MovedRate, act.RTTCostMs = shedCost(s.Eval.Model.Groups, rep, after)
		accepted[actionKey(act)] = true
		res.Actions = append(res.Actions, *act)
		exc := trials[best].exc
		s.sobs.actions.Inc()
		s.sobs.excess.Set(exc)
		s.traceCommit(round, int64(best), act, exc)
		rep = after
		if exc < bestExcess-1e-9 {
			bestExcess, bestLen, stall = exc, len(res.Actions), 0
		} else {
			stall++
			if stall%stallRestart == 0 && len(res.Actions) > bestLen {
				if err := s.rewindTo(res, bestLen); err != nil {
					rsp.End()
					return nil, err
				}
				rep = s.Eval.Evaluate(mat)
			}
		}
	}
	// The walk may have ended past its minimum; leave the engine in the
	// best state seen.
	if len(res.Actions) > bestLen {
		if err := s.rewindTo(res, bestLen); err != nil {
			rsp.End()
			return nil, err
		}
		rep = s.Eval.Evaluate(mat)
	}
	res.Final = rep
	res.Resolved = len(rep.Overloads()) == 0
	if rsp.Active() {
		rsp.End(obs.Int("actions", int64(len(res.Actions))), obs.Bool("resolved", res.Resolved))
	}
	return res, nil
}

// rewindTo restores the original announcements and replays the first n
// committed actions: apply is deterministic, so the replay reconverges to
// that intermediate state exactly.
func (s *Steerer) rewindTo(res *SteeringResult, n int) error {
	s.sobs.rewinds.Inc()
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Event{
			Scope: "steer",
			Name:  "rewind",
			Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}},
			Attrs: []obs.Attr{obs.Int("keep", int64(n)), obs.Int("drop", int64(len(res.Actions)-n))},
		})
	}
	if err := s.Reset(); err != nil {
		return err
	}
	res.Actions = res.Actions[:n]
	for i := range res.Actions {
		if err := s.apply(&res.Actions[i]); err != nil {
			return err
		}
	}
	return nil
}

// traceTrial emits one candidate's trial outcome as a structured event,
// from the serial Resolve loop in candidate order.
func (s *Steerer) traceTrial(round, idx int64, act *Action, exc float64) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	s.cfg.Tracer.Emit(obs.Event{
		Scope: "steer",
		Name:  "trial",
		Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}, {Key: "round", V: round}, {Key: "trial", V: idx}},
		Attrs: []obs.Attr{obs.Str("action", act.String()), obs.Float("exc", exc)},
	})
}

// traceCommit marks the round's winning candidate after it was applied to
// the real engine.
func (s *Steerer) traceCommit(round, idx int64, act *Action, exc float64) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	s.cfg.Tracer.Emit(obs.Event{
		Scope: "steer",
		Name:  "commit",
		Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}, {Key: "round", V: round}, {Key: "trial", V: idx}},
		Attrs: []obs.Attr{
			obs.Str("action", act.String()),
			obs.Float("exc", exc),
			obs.Float("util_before", act.UtilBefore),
			obs.Float("util_after", act.UtilAfter),
			obs.Float("shed", act.ShedRate),
		},
	})
}

// trialOutcome is one candidate's measured effect.
type trialOutcome struct {
	after *LoadReport
	exc   float64
	err   error
}

// trialRound applies and evaluates every candidate concurrently, each on a
// private copy-on-write fork of the real engine, over a worker pool bounded
// by cfg.Workers (GOMAXPROCS when 0). An action only ever touches its own
// prefix, so each trial clones just that prefix's announcement list; the
// shared steerer state, the demand model, and the parent engine are
// read-only for the duration of the round. Results come back indexed by
// candidate, so downstream winner selection and tracing are independent of
// scheduling. This replaces the serial apply/measure/rollback walk: each
// trial costs one incremental reconvergence on a throwaway fork instead of
// two on the live engine.
func (s *Steerer) trialRound(mat Matrix, cands []*Action) ([]trialOutcome, error) {
	out := make([]trialOutcome, len(cands))
	run := func(i int) {
		act := cands[i]
		f := s.Eval.Engine.Fork()
		cur := map[netip.Prefix][]bgp.SiteAnnouncement{
			act.Prefix: slices.Clone(s.cur[act.Prefix]),
		}
		if err := s.applyOn(f, cur, act); err != nil {
			out[i] = trialOutcome{err: err}
			return
		}
		after := s.Eval.EvaluateOn(f, mat)
		out[i] = trialOutcome{after: after, exc: totalExcess(after)}
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range cands {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i := range out {
		if out[i].err != nil {
			return nil, out[i].err
		}
	}
	return out, nil
}

// totalExcess sums squared demand above capacity over all sites: the
// steering objective. Squaring makes the objective strictly convex in the
// per-site excess, so moving load from a badly overloaded site to a mildly
// overloaded one registers as progress — under a linear sum such balancing
// moves are plateau steps and the descent stalls on them.
func totalExcess(rep *LoadReport) float64 {
	t := 0.0
	for _, sl := range rep.Sites {
		if d := sl.Demand - sl.Capacity; d > 0 {
			t += d * d
		}
	}
	return t
}

// actionKey identifies a candidate action for the rejected-attempt set.
// The relieved site is deliberately excluded: an action's routing effect
// does not depend on which overload nominated it.
func actionKey(a *Action) string {
	return fmt.Sprintf("%d|%s|%s|%s", a.Kind, a.Prefix, a.Site, a.Detail)
}

// shedCost compares two load reports: total demand that changed serving
// site and the demand-weighted mean propagation-RTT delta of those groups.
// The sums run over groups (the demand model's, sorted by key), not over
// the assignment map, so the result is bit-identical across calls.
func shedCost(groups []GroupDemand, before, after *LoadReport) (moved, costMs float64) {
	var wsum, dsum float64
	for _, g := range groups {
		b, ok := before.Assignments[g.Key]
		if !ok {
			continue
		}
		a, ok := after.Assignments[g.Key]
		if !ok || a.Site == b.Site {
			continue
		}
		moved += b.Rate
		wsum += b.Rate
		dsum += b.Rate * (a.RTTMs - b.RTTMs)
	}
	if wsum > 0 {
		costMs = dsum / wsum
	}
	return moved, costMs
}

// roundCands gathers the candidates to trial in one round: each overloaded
// site's ladder, drawn round-robin across sites and ladder depth (worst
// site's mildest knob first) so every move class — push, pull, add
// capacity — gets trialled, not just the worst site's first idea.
func (s *Steerer) roundCands(rep *LoadReport, overloads []SiteLoad, tabu map[string]bool) []*Action {
	lists := make([][]*Action, len(overloads))
	for i, o := range overloads {
		lists[i] = s.knobCands(rep, o)
	}
	var out []*Action
	seen := map[string]bool{}
	for depth := 0; len(out) < trialsPerRound; depth++ {
		any := false
		for _, l := range lists {
			if depth >= len(l) {
				continue
			}
			any = true
			k := actionKey(l[depth])
			if seen[k] {
				continue
			}
			if tabu[k] {
				s.sobs.tabuHits.Inc()
				continue
			}
			seen[k] = true
			out = append(out, l[depth])
			if len(out) >= trialsPerRound {
				break
			}
		}
		if !any {
			break
		}
	}
	return out
}

// knobCands lists an overloaded site's candidate steering steps in ladder
// order. Candidate order encodes the policy; the Resolve filter decides
// what sticks.
func (s *Steerer) knobCands(rep *LoadReport, over SiteLoad) []*Action {
	p, ok := s.hottestPrefix(rep, over.Site)
	if !ok {
		return nil
	}
	ann, _ := s.annFor(p, over.Site)
	var cands []*Action

	crossCands := func() []*Action {
		var out []*Action
		for _, helper := range s.helpersBySpare(rep, p) {
			out = append(out, &Action{
				Kind: ActionCrossAnnounce, Prefix: p, Site: helper, Target: over.Site,
				Detail: fmt.Sprintf("announce %s from %s", p, helper),
			})
		}
		return out
	}

	// A saturated prefix — demand above the soft-knee capacity of its
	// announcing sites — cannot be fixed by shuffling load among them:
	// prepending every hot site in turn only restores the original relative
	// path lengths. Add capacity first by cross-announcing from spare
	// sites, largest spare first.
	saturated := s.cfg.AllowCrossAnnounce && s.prefixSaturated(rep, p)
	if saturated {
		cands = append(cands, crossCands()...)
	}
	// Once helpers announce the prefix, the coordinated wave is the
	// preferred knob: it drains the whole region toward them without
	// disturbing the intra-region balance. Before any helper exists the
	// wave would only shuffle the region onto itself, so it is not
	// offered.
	if wave := s.waveCand(p, over); wave != nil {
		cands = append(cands, wave)
	}

	// The scoped announcement is the mildest shedding knob: it drops only
	// the site's own-metro peer sessions, so the local peering catchment
	// spills to transit (and often to a sibling site) while every other
	// peer keeps its direct route. Offered before transit-only because it
	// sheds a strict subset of what that knob sheds.
	if s.cfg.AllowScoped && ann != nil && s.Eval.Engine.Policy() != nil {
		if scope, err := policy.NoPeerMetro(ann.City); err == nil && !hasCommunity(ann.Communities, scope) {
			cands = append(cands, &Action{
				Kind: ActionScopedAnnounce, Prefix: p, Site: over.Site, Target: over.Site,
				Detail: fmt.Sprintf("announce %s, but not to peers in metro %s", p, ann.City),
			})
		}
	}
	// Mild knobs move traffic to sibling announcers. Prepending only
	// deters neighbours that compare path length — clients on peer or
	// customer routes to the site stay put at any prepend depth — so after
	// two levels also offer transit-only: withdrawing from peers forces
	// those clients onto their provider paths, where length comparison
	// resumes.
	if s.cfg.AllowSelective && ann != nil && ann.OnlyNeighbors == nil && ann.Prepend >= 2 {
		providers := providersAt(s.Eval.Engine.Topology(), s.Eval.Dep.ASN, ann.City)
		if len(providers) > 0 {
			cands = append(cands, &Action{
				Kind: ActionSelective, Prefix: p, Site: over.Site, Target: over.Site,
				Detail: fmt.Sprintf("announce to %d transit providers only", len(providers)),
			})
		}
	}
	// Push prepends at several strides: +1 peels the marginal clients, but
	// a site whose path advantage is several hops deep sheds nothing until
	// the prepend overcomes all of it, and single steps never survive a
	// best-of-round trial. Larger strides let one action cross that gap.
	if ann != nil && ann.Prepend < s.cfg.MaxPrepend {
		for _, next := range []int{ann.Prepend + 1, ann.Prepend + 3, s.cfg.MaxPrepend} {
			if next > s.cfg.MaxPrepend {
				next = s.cfg.MaxPrepend
			}
			cands = append(cands, &Action{
				Kind: ActionPrepend, Prefix: p, Site: over.Site, Target: over.Site,
				Prepend: next,
				Detail:  fmt.Sprintf("prepend %d -> %d", ann.Prepend, next),
			})
		}
	}
	// Pushing is not the only move: a sibling that earlier steps drained
	// with prepending can pull load back by removing a level. Offer the
	// attract move for the sparest prepended siblings.
	cands = append(cands, s.attractCands(rep, p, over)...)
	// Cross-announcing can still relieve an unsaturated prefix whose mild
	// knobs all failed.
	if s.cfg.AllowCrossAnnounce && !saturated {
		cands = append(cands, crossCands()...)
	}
	return cands
}

// regionSites returns the owning region's name and the site IDs that
// natively announce a prefix. A prefix nobody owns — the global
// deployment's shared prefix — yields ok=false: coordinated regional moves
// are not expressible on it.
func (s *Steerer) regionSites(p netip.Prefix) (string, map[string]bool) {
	name := ""
	found := false
	for _, r := range s.Eval.Dep.Regions {
		if r.Prefix == p {
			name, found = r.Name, true
			break
		}
	}
	if !found {
		return "", nil
	}
	out := map[string]bool{}
	for _, site := range s.Eval.Dep.Sites {
		for _, rn := range site.Regions {
			if rn == name {
				out[site.ID] = true
				break
			}
		}
	}
	return name, out
}

// waveCand proposes a coordinated regional prepend wave on a prefix, or
// nil when the move is unavailable: no owning region, no out-of-region
// helper announced yet, or the whole region already at the prepend cap.
// The wave's tabu identity is the region's aggregate prepend depth, so
// each rung of the coordinated ladder is trialled once.
func (s *Steerer) waveCand(p netip.Prefix, over SiteLoad) *Action {
	region, inRegion := s.regionSites(p)
	if inRegion == nil {
		return nil
	}
	hasHelper, canDeepen := false, false
	depth := 0
	for _, ann := range s.cur[p] {
		if !inRegion[ann.Site] {
			hasHelper = true
			continue
		}
		depth += ann.Prepend
		if ann.Prepend < s.cfg.MaxPrepend {
			canDeepen = true
		}
	}
	if !hasHelper || !canDeepen {
		return nil
	}
	return &Action{
		Kind: ActionPrependWave, Prefix: p, Site: region, Target: over.Site,
		Detail: fmt.Sprintf("wave from depth %d", depth),
	}
}

// prefixSaturated reports whether a prefix's total demand exceeds the
// soft-knee capacity of the sites announcing it. The soft threshold keeps
// cross-announcing until the prefix has real slack: provisioning exactly to
// demand leaves the shuffling knobs no headroom to land catchment chunks.
func (s *Steerer) prefixSaturated(rep *LoadReport, p netip.Prefix) bool {
	demand := 0.0
	for _, a := range rep.Assignments {
		if a.Prefix == p {
			demand += a.Rate
		}
	}
	capacity := 0.0
	for _, ann := range s.cur[p] {
		if sl, ok := rep.SiteLoadByID(ann.Site); ok {
			capacity += sl.Capacity
		}
	}
	return demand > s.Eval.Config().SoftUtil*capacity
}

// hottestPrefix returns the prefix carrying the most demand into a site.
func (s *Steerer) hottestPrefix(rep *LoadReport, site string) (netip.Prefix, bool) {
	byPfx := map[netip.Prefix]float64{}
	for _, a := range rep.Assignments {
		if a.Site == site {
			byPfx[a.Prefix] += a.Rate
		}
	}
	var best netip.Prefix
	bestRate := -1.0
	for p, r := range byPfx {
		if r > bestRate || (r == bestRate && p.String() < best.String()) {
			best, bestRate = p, r
		}
	}
	return best, bestRate >= 0
}

// annFor finds a site's current announcement of a prefix.
func (s *Steerer) annFor(p netip.Prefix, site string) (*bgp.SiteAnnouncement, int) {
	return annIn(s.cur, p, site)
}

// annIn finds a site's announcement of a prefix in a working set.
func annIn(cur map[netip.Prefix][]bgp.SiteAnnouncement, p netip.Prefix, site string) (*bgp.SiteAnnouncement, int) {
	for i := range cur[p] {
		if cur[p][i].Site == site {
			return &cur[p][i], i
		}
	}
	return nil, -1
}

// attractCands proposes prepend decreases on announcers of p that are
// below the soft knee but still prepended, sparest first: the inverse
// knob, pulling load toward unused capacity instead of pushing it off the
// overloaded site.
func (s *Steerer) attractCands(rep *LoadReport, p netip.Prefix, over SiteLoad) []*Action {
	soft := s.Eval.Config().SoftUtil
	type cand struct {
		ann   bgp.SiteAnnouncement
		spare float64
	}
	var cs []cand
	for _, ann := range s.cur[p] {
		if ann.Site == over.Site || ann.Prepend == 0 {
			continue
		}
		if sl, ok := rep.SiteLoadByID(ann.Site); ok && sl.Utilization() < soft {
			cs = append(cs, cand{ann, sl.Capacity - sl.Demand})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].spare != cs[j].spare {
			return cs[i].spare > cs[j].spare
		}
		return cs[i].ann.Site < cs[j].ann.Site
	})
	var out []*Action
	for _, c := range cs {
		for _, next := range []int{c.ann.Prepend - 1, 0} {
			out = append(out, &Action{
				Kind: ActionPrepend, Prefix: p, Site: c.ann.Site, Target: over.Site,
				Prepend: next,
				Detail:  fmt.Sprintf("prepend %d -> %d", c.ann.Prepend, next),
			})
		}
	}
	return out
}

// helpersBySpare lists sites not announcing p and below the soft knee,
// most spare capacity first. Spare capacity, not distance, ranks helpers:
// a nearby thin edge site would itself overload the moment a catchment
// chunk lands on it.
func (s *Steerer) helpersBySpare(rep *LoadReport, p netip.Prefix) []string {
	announces := map[string]bool{}
	for _, ann := range s.cur[p] {
		announces[ann.Site] = true
	}
	soft := s.Eval.Config().SoftUtil
	type cand struct {
		site  string
		spare float64
	}
	var cs []cand
	for _, sl := range rep.Sites {
		if announces[sl.Site] || sl.Utilization() >= soft {
			continue
		}
		cs = append(cs, cand{sl.Site, sl.Capacity - sl.Demand})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].spare != cs[j].spare {
			return cs[i].spare > cs[j].spare
		}
		return cs[i].site < cs[j].site
	})
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.site
	}
	return out
}

// apply pushes one action into the real engine via incremental per-site
// reconvergence and records it in the working announcement set.
func (s *Steerer) apply(act *Action) error {
	return s.applyOn(s.Eval.Engine, s.cur, act)
}

// applyOn pushes one action into an engine (the real one, or a trial fork)
// and records it in the given working announcement set. Everything else it
// reads — the deployment, the topology, the steerer configuration — is
// immutable, so concurrent trials only need disjoint engines and working
// sets.
func (s *Steerer) applyOn(eng *bgp.Engine, cur map[netip.Prefix][]bgp.SiteAnnouncement, act *Action) error {
	switch act.Kind {
	case ActionPrepend:
		ann, i := annIn(cur, act.Prefix, act.Site)
		if ann == nil {
			return fmt.Errorf("traffic: %s does not announce %s", act.Site, act.Prefix)
		}
		next := *ann
		next.Prepend = act.Prepend
		if err := eng.AnnounceSite(act.Prefix, next); err != nil {
			return err
		}
		cur[act.Prefix][i] = next
	case ActionSelective:
		ann, i := annIn(cur, act.Prefix, act.Site)
		if ann == nil {
			return fmt.Errorf("traffic: %s does not announce %s", act.Site, act.Prefix)
		}
		next := *ann
		next.OnlyNeighbors = providersAt(eng.Topology(), s.Eval.Dep.ASN, ann.City)
		if err := eng.AnnounceSite(act.Prefix, next); err != nil {
			return err
		}
		cur[act.Prefix][i] = next
	case ActionCrossAnnounce:
		site, ok := s.Eval.Dep.SiteByID(act.Site)
		if !ok {
			return fmt.Errorf("traffic: unknown site %s", act.Site)
		}
		next := bgp.SiteAnnouncement{
			Origin: s.Eval.Dep.ASN,
			Site:   site.ID,
			City:   site.City,
		}
		if err := eng.AnnounceSite(act.Prefix, next); err != nil {
			return err
		}
		cur[act.Prefix] = append(cur[act.Prefix], next)
	case ActionScopedAnnounce:
		ann, i := annIn(cur, act.Prefix, act.Site)
		if ann == nil {
			return fmt.Errorf("traffic: %s does not announce %s", act.Site, act.Prefix)
		}
		scope, err := policy.NoPeerMetro(ann.City)
		if err != nil {
			return fmt.Errorf("traffic: scoped announce at %s: %w", ann.City, err)
		}
		next := *ann
		next.Communities = appendCommunity(ann.Communities, scope)
		if err := eng.AnnounceSite(act.Prefix, next); err != nil {
			return err
		}
		cur[act.Prefix][i] = next
	case ActionPrependWave:
		_, inRegion := s.regionSites(act.Prefix)
		if inRegion == nil {
			return fmt.Errorf("traffic: %s has no owning region", act.Prefix)
		}
		for i, ann := range cur[act.Prefix] {
			if !inRegion[ann.Site] || ann.Prepend >= s.cfg.MaxPrepend {
				continue
			}
			next := ann
			next.Prepend++
			if err := eng.AnnounceSite(act.Prefix, next); err != nil {
				return err
			}
			cur[act.Prefix][i] = next
		}
	default:
		return fmt.Errorf("traffic: unknown action kind %d", act.Kind)
	}
	return nil
}

// hasCommunity reports whether an announcement's community list already
// carries c.
func hasCommunity(cs []policy.Community, c policy.Community) bool {
	for _, e := range cs {
		if e == c {
			return true
		}
	}
	return false
}

// appendCommunity returns a fresh community list with c added (announcement
// slices are shared across trial forks, so never mutated in place).
func appendCommunity(cs []policy.Community, c policy.Community) []policy.Community {
	out := make([]policy.Community, 0, len(cs)+1)
	out = append(out, cs...)
	if !hasCommunity(cs, c) {
		out = append(out, c)
	}
	return out
}

// providersAt lists the deployment AS's transit providers with sessions at
// a city, sorted — the dailycatch transit-only allowlist, generalized.
func providersAt(tp *topo.Topology, asn topo.ASN, city string) []topo.ASN {
	var out []topo.ASN
	for _, li := range tp.LinksOf(asn) {
		l := tp.Links()[li]
		if l.Type != topo.CustomerToProvider || l.A != asn {
			continue
		}
		for _, c := range l.Cities {
			if c == city {
				nbr, _ := l.Other(asn)
				out = append(out, nbr)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
