package bgp

// Route provenance: the decision-level record behind each installed route.
//
// With provenance enabled the engine records, per (prefix, AS), not just the
// selected route set but *why* it won: the policy step that decided the
// selection (local-pref class, AS-path length, or the equal-preference
// tie-break), the most competitive route that lost, and the step at which it
// lost. internal/glass layers the looking-glass and catchment-diff analyses
// on top of this record.
//
// Storage mirrors the rib layout: one per-rank provTable per prefix,
// parallel to the ribTable, holding a pointer per AS (nil: no routing
// state). Records are immutable once installed, so a scoped reconverge pass
// copies the old table's pointers, gives only the dirty ASes fresh records,
// and Fork shallow-copies the per-prefix map exactly like ribs. A pass
// therefore allocates in proportion to its dirty region plus one pointer
// per AS, never a full set of records.
//
// The drop recorder is sparse in the same way: a pointer-free position
// index over every AS and a slot slice that only ASes which actually drop
// an offer append to, pre-sized to the dirty region (every AS on a full
// converge). Policy-drop slots are allocated lazily alongside.
//
// The provenance-off path stays allocation-identical to an engine without
// the feature: every recording site is gated on a nil *provRecorder (or
// e.provOn) before any event is materialised, and the off path never touches
// the prov map. BenchmarkAnnounceProvenance pins this.
//
// Determinism. A provTable is a pure function of (topology, announcement
// set): winners come from the deterministic converge result, and the
// runner-up per class is the *minimum* dropped route under (path length,
// routeCmp) — a min over a set, independent of offer arrival and iteration
// order. Incremental reconvergence carries clean ASes' provenance records
// over by pointer, which is sound for the same reason carrying their ribs is:
// at the worklist fixed point no changed export crosses into a clean AS, so
// a clean AS's full incoming offer stream — including the offers it
// dropped — is identical to the one a full recompute would deliver.
// prov_test.go property-tests both equivalences (incremental vs full,
// fork+apply vs serial apply) bit for bit.

import (
	"fmt"
	"net/netip"
	"sync"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

// DecisionStep identifies the policy step that decided a route selection —
// the first comparison at which the runner-up lost.
type DecisionStep uint8

// Decision steps, in BGP decision-process order.
const (
	// StepOnlyRoute: the AS heard no competing route at all.
	StepOnlyRoute DecisionStep = iota
	// StepLocalPref: the runner-up was in a less-preferred relationship
	// class (customer > public peer > rs peer > provider).
	StepLocalPref
	// StepPathLen: same class, but the runner-up's AS path was longer.
	StepPathLen
	// StepTieBreak: same class and path length; the operator's neighbour
	// ranking (nearest-downstream or router-ID order) or hot-potato egress
	// decided.
	StepTieBreak
	// StepCommunity: the runner-up never entered the decision process at
	// all — the policy layer rejected it at the origin's edge (an export
	// filter, a scope community, or an import reject). Only produced by
	// engines with a policy configured.
	StepCommunity
)

var stepNames = map[DecisionStep]string{
	StepOnlyRoute: "only-route",
	StepLocalPref: "local-pref",
	StepPathLen:   "path-len",
	StepTieBreak:  "tie-break",
	StepCommunity: "community-dropped",
}

// String returns a short step name.
func (s DecisionStep) String() string {
	if n, ok := stepNames[s]; ok {
		return n
	}
	return "unknown"
}

// Provenance is the decision record of one AS's route selection for one
// prefix. Winner is the representative selected route (the routeCmp-least
// retained route of the winning class); RunnerUp, when present, is the most
// competitive route that lost, and Step is the comparison that rejected it.
type Provenance struct {
	// Valid reports that the AS holds routing state for the prefix.
	Valid bool
	// WinnerClass is the import edge class of the selected routes.
	WinnerClass RelClass
	// Step is the decision step that settled the selection.
	Step DecisionStep
	// Winner is the representative selected route.
	Winner Route
	// HasRunnerUp reports whether any competing route existed.
	HasRunnerUp bool
	// RunnerUp is the best losing route; RunnerClass is its import class.
	RunnerUp    Route
	RunnerClass RelClass
	// AltInClass is the number of retained equally-preferred routes (the
	// hot-potato egress breadth of the winning class).
	AltInClass int
	// Arbitrary is the operator's tie-break trait: true for geography-blind
	// (router-ID style) neighbour ranking.
	Arbitrary bool
}

// provTable is one prefix's per-AS provenance, indexed by dense AS rank,
// parallel to the ribTable; nil marks an AS with no routing state. Records
// are immutable once installed and shared by pointer across passes and forks.
type provTable []*Provenance

// provRecorder accumulates the best dropped route per (AS, class) during one
// converge call. It exists only when provenance is enabled; every method is
// nil-safe so call sites stay branch-only on the off path.
type provRecorder struct {
	// pos maps a dense AS index to 1 + its slot in drops; 0 means the AS
	// has dropped nothing. Pointer-free, so the collector never scans it.
	pos []int32
	// drops holds one slot per AS that dropped an offer, in first-drop
	// order.
	drops []dropSlots
	// polDrops records seeds the policy layer rejected, indexed like drops
	// and grown on demand. Allocated lazily on the first policy drop: a
	// provenance-on converge with no policy (or a policy that rejects
	// nothing) allocates exactly what it would without the policy layer.
	polDrops []dropSlots
}

// dropSlots is one AS's best dropped route per import class.
type dropSlots [FromProvider + 1]dropSlot

type dropSlot struct {
	r  Route
	ok bool
}

// recorderCache recycles drop recorders across the converge passes of an
// engine and its forks (Fork shares the cache): every steering trial and
// served event runs at least one provenance-recording pass, and a fresh
// recorder costs a position index over every AS plus its slot array. Unlike
// a sync.Pool the cache never discards a returned recorder, so how much a
// pass allocates does not depend on scheduling, garbage collection or the
// race detector. It holds at most one recorder per concurrent pass of the
// engine family.
type recorderCache struct {
	mu   sync.Mutex
	free []*provRecorder
}

// get returns an empty recorder over n ASes with room for slots drop slots
// before its slot slice grows. Hand it back with put once buildProvTable
// has copied what it needs.
func (c *recorderCache) get(n, slots int) *provRecorder {
	c.mu.Lock()
	var p *provRecorder
	if k := len(c.free); k > 0 {
		p = c.free[k-1]
		c.free = c.free[:k-1]
	}
	c.mu.Unlock()
	if p == nil {
		p = new(provRecorder)
	}
	if cap(p.pos) < n {
		p.pos = make([]int32, n)
	} else {
		p.pos = p.pos[:n]
		clear(p.pos)
	}
	if cap(p.drops) < slots {
		p.drops = make([]dropSlots, 0, slots)
	}
	return p
}

// put clears the recorder's slots — they hold routes whose paths must not
// outlive the pass — and returns it to the cache. Nothing aliases a
// recorder after buildProvTable: provenance records copy Route values. A
// cached recorder keeps its arrays (at most one slot per AS), which is
// what lets the next pass allocate nothing for it.
func (c *recorderCache) put(p *provRecorder) {
	clear(p.drops)
	clear(p.polDrops)
	p.drops, p.polDrops = p.drops[:0], p.polDrops[:0]
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// slot returns AS index i's slot number, appending a fresh slot on its first
// drop.
func (p *provRecorder) slot(i int) int {
	if k := p.pos[i]; k != 0 {
		return int(k - 1)
	}
	p.drops = append(p.drops, dropSlots{})
	p.pos[i] = int32(len(p.drops))
	return len(p.drops) - 1
}

// keep folds r into s when it beats the slot's current route.
func (s *dropSlot) keep(r *Route) {
	if !s.ok || dropBetter(r, &s.r) {
		s.r, s.ok = *r, true
	}
}

// dropBetter orders dropped routes: shorter AS path first, then routeCmp.
// A min under this order is independent of recording order.
func dropBetter(a, b *Route) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return routeLess(a, b)
}

// drop records one rejected route offer for AS index i.
func (p *provRecorder) drop(i int, r *Route) {
	k := p.slot(i)
	p.drops[k][r.Rel].keep(r)
}

// dropRoutes records a batch of rejected offers. The slots copy what they
// keep, so callers may reuse the batch's backing array.
func (p *provRecorder) dropRoutes(i int, routes []Route) {
	if p == nil {
		return
	}
	for k := range routes {
		p.drop(i, &routes[k])
	}
}

// dropMissing records every offered route that did not survive capClass.
// Candidate sets are small, so the quadratic membership scan is cheap — and
// it only ever runs with provenance on.
func (p *provRecorder) dropMissing(i int, offered, kept []Route) {
	if p == nil {
		return
	}
	for j := range offered {
		r := &offered[j]
		retained := false
		for k := range kept {
			if sameRoute(r, &kept[k]) {
				retained = true
				break
			}
		}
		if !retained {
			p.drop(i, r)
		}
	}
}

// dropPolicy records a seed the policy layer rejected for AS index i. The
// route carries its pre-policy import class.
func (p *provRecorder) dropPolicy(i int, r *Route) {
	k := p.slot(i)
	if p.polDrops == nil {
		p.polDrops = make([]dropSlots, 0, cap(p.drops))
	}
	for len(p.polDrops) <= k {
		p.polDrops = append(p.polDrops, dropSlots{})
	}
	p.polDrops[k][r.Rel].keep(r)
}

// dropOf returns the best dropped route of a class for AS index i, taking
// the minimum under dropBetter across decision-process drops and policy
// drops. pol reports that the returned route was a policy rejection —
// selection never saw it — which buildProv surfaces as StepCommunity. An AS
// with no slot dropped nothing.
func (p *provRecorder) dropOf(i int, c RelClass) (r Route, pol, ok bool) {
	k := int(p.pos[i]) - 1
	if k < 0 {
		return Route{}, false, false
	}
	s := p.drops[k][c]
	r, ok = s.r, s.ok
	if k < len(p.polDrops) {
		if ps := &p.polDrops[k][c]; ps.ok && (!ok || dropBetter(&ps.r, &r)) {
			r, pol, ok = ps.r, true, true
		}
	}
	return r, pol, ok
}

// buildProv derives one AS's provenance from its converged rib and the
// offers it dropped. The runner-up is chosen by decision-process order: a
// same-class equal-length alternative (retained or dropped) loses at the
// tie-break; a same-class longer route loses at path length; the best route
// of the next non-empty class loses at local-pref.
func (e *Engine) buildProv(i int, rb *rib, pr *provRecorder) Provenance {
	cls, set, ok := rb.best()
	if !ok {
		return Provenance{}
	}
	_, arb := e.capFor(e.byIdx[i])
	p := Provenance{
		Valid:       true,
		WinnerClass: cls,
		Winner:      set[0],
		AltInClass:  len(set),
		Arbitrary:   arb,
	}
	// Tie-break runner-up: the best same-class equal-length competitor,
	// whether it was retained alongside the winner, capped out, or (when
	// the chosen competitor is a policy drop) filtered before selection —
	// the latter reports StepCommunity instead of the decision step.
	var ru Route
	has, ruPol := false, false
	if len(set) > 1 {
		ru, has = set[1], true
	}
	if d, pol, okD := pr.dropOf(i, cls); okD && d.Len() == set[0].Len() {
		if !has || routeLess(&d, &ru) {
			ru, has, ruPol = d, true, pol
		}
	}
	if has {
		p.RunnerUp, p.RunnerClass, p.HasRunnerUp = ru, cls, true
		p.Step = stepOr(StepTieBreak, ruPol)
		return p
	}
	if d, pol, okD := pr.dropOf(i, cls); okD {
		p.RunnerUp, p.RunnerClass, p.HasRunnerUp = d, cls, true
		p.Step = stepOr(StepPathLen, pol)
		return p
	}
	for c := cls + 1; c <= FromProvider; c++ {
		if alts := rb.classes[c]; len(alts) > 0 {
			p.RunnerUp, p.RunnerClass, p.HasRunnerUp, p.Step = alts[0], c, true, StepLocalPref
			return p
		}
		if d, pol, okD := pr.dropOf(i, c); okD {
			p.RunnerUp, p.RunnerClass, p.HasRunnerUp = d, c, true
			p.Step = stepOr(StepLocalPref, pol)
			return p
		}
	}
	p.Step = StepOnlyRoute
	return p
}

// stepOr substitutes StepCommunity when the chosen runner-up was a policy
// rejection rather than a decision-process loss.
func stepOr(s DecisionStep, pol bool) DecisionStep {
	if pol {
		return StepCommunity
	}
	return s
}

// EngineConfig parameterises engine construction. The zero value matches
// NewEngine.
type EngineConfig struct {
	// Provenance enables decision-provenance recording: every converge
	// stores a per-AS Provenance table alongside the rib table. Off by
	// default; the off path is allocation-identical to an engine without
	// the feature.
	Provenance bool
	// Policy installs a community/filter layer (see policy.go). nil — the
	// default — leaves the engine byte- and allocation-identical to one
	// without the layer.
	Policy *policy.Policy
}

// NewEngineWithConfig builds an engine over a topology with the given
// configuration.
func NewEngineWithConfig(t *topo.Topology, cfg EngineConfig) *Engine {
	e := NewEngine(t)
	if cfg.Provenance {
		e.SetProvenance(true)
	}
	if cfg.Policy != nil {
		e.SetPolicy(cfg.Policy)
	}
	return e
}

// SetProvenance toggles provenance recording. Turning it on (or off) clears
// any stored provenance; prefixes announced before enabling have no
// provenance until re-announced (Deployment.Announce is idempotent for
// routing state, so re-announcing is safe). Not synchronized with concurrent
// engine use — call while the engine is quiescent.
func (e *Engine) SetProvenance(on bool) {
	e.mu.Lock()
	e.provOn = on
	if on {
		e.prov = make(map[netip.Prefix]provTable)
	} else {
		e.prov = nil
	}
	e.mu.Unlock()
}

// ProvenanceEnabled reports whether the engine records route provenance.
func (e *Engine) ProvenanceEnabled() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.provOn
}

// Provenance returns the decision record for (prefix, asn). ok is false when
// provenance is disabled, the prefix has no provenance (announced before
// enabling), or the AS holds no routing state for it.
func (e *Engine) Provenance(prefix netip.Prefix, asn topo.ASN) (Provenance, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return Provenance{}, false
	}
	e.mu.RLock()
	tbl, ok := e.prov[prefix]
	e.mu.RUnlock()
	if !ok || i >= len(tbl) || tbl[i] == nil {
		return Provenance{}, false
	}
	return *tbl[i], true
}

// provFor returns the stored provenance table for a prefix (nil when
// provenance is off or the prefix has none).
func (e *Engine) provFor(prefix netip.Prefix) provTable {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.prov[prefix]
}

// buildProvTable assembles the provenance table after a converge:
// recomputed ASes with routing state get fresh records, clean ASes (scoped
// mode) carry their old records by pointer. Each record is its own
// allocation, so a long-lived entry pins nothing else of its pass.
func (e *Engine) buildProvTable(ribs ribTable, sc *convergeScope, pr *provRecorder) provTable {
	prov := make(provTable, e.n)
	build := func(i int) {
		prov[i] = nil
		if rb := ribs[i]; rb != nil {
			if p := e.buildProv(i, rb, pr); p.Valid {
				prov[i] = &p
			}
		}
	}
	if sc == nil {
		for i := range ribs {
			build(i)
		}
		return prov
	}
	copy(prov, sc.oldProv)
	sc.dirty.forEach(build)
	return prov
}

// provString renders a provenance record for debugging.
func (p Provenance) String() string {
	if !p.Valid {
		return "no-route"
	}
	s := fmt.Sprintf("%s via %s (%d alt), %s", p.WinnerClass, p.Winner.String(), p.AltInClass, p.Step)
	if p.HasRunnerUp {
		s += fmt.Sprintf(" over %s %s", p.RunnerClass, p.RunnerUp.String())
	}
	return s
}
