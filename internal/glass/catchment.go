package glass

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/topo"
)

// Pathology classifies why a probe group's catchment is (in)efficient, in
// the paper's taxonomy (§2.1, §5.4).
type Pathology string

// Pathology classes.
const (
	// Efficient: the serving site is within InflationThresholdMs of the
	// nearest announced site.
	Efficient Pathology = "efficient"
	// PolicyOverGeography: some AS on the path rejected a route toward a
	// closer site at local-pref or path-length — policy beat geography.
	PolicyOverGeography Pathology = "policy-over-geography"
	// HotPotatoEgress: the inflation comes from an equal-preference
	// tie-break — an AS held a route toward a closer site in the same class
	// and its egress ranking (arbitrary or hot-potato) picked the other.
	HotPotatoEgress Pathology = "hot-potato-egress"
	// NoRegionalRoute: no AS on the path ever heard a route toward a
	// closer site — the closer site's announcement does not reach this
	// corner of the topology.
	NoRegionalRoute Pathology = "no-regional-route"
)

// InflationThresholdMs is the one-way fiber-latency inflation above which a
// catchment counts as inefficient (the paper's 5 ms bar for "meaningfully
// worse than the best site").
const InflationThresholdMs = 5.0

// CatchmentExplanation explains where one <city,AS> probe group lands and
// why. Serving state comes from the group's representative probe (lowest
// ID), matching the dynamics analyses.
type CatchmentExplanation struct {
	Group   string   `json:"group"`
	City    string   `json:"city"`
	ASN     topo.ASN `json:"asn"`
	Country string   `json:"country"`
	Area    string   `json:"area"`
	// Region / Prefix are the operator-intended mapping for the group's
	// country and the anycast prefix it resolves to.
	Region string       `json:"region"`
	Prefix netip.Prefix `json:"prefix"`
	// Served is false when the group has no route to the prefix.
	Served   bool    `json:"served"`
	Site     string  `json:"site,omitempty"`
	SiteCity string  `json:"site_city,omitempty"`
	RTTMs    float64 `json:"rtt_ms,omitempty"`
	// NearestSite is the announced site geographically nearest the group;
	// InflationMs is the extra one-way fiber latency of the actual
	// catchment over it.
	NearestSite string    `json:"nearest_site"`
	NearestKm   float64   `json:"nearest_km"`
	ActualKm    float64   `json:"actual_km,omitempty"`
	InflationMs float64   `json:"inflation_ms"`
	Class       Pathology `json:"class"`
	// Exp is the hop-by-hop decision chain (empty when unserved).
	Exp Explanation `json:"exp"`
}

// ExplainCatchment maps a <city,AS> probe group (key "CITY|ASN") of a
// deployment to its serving site with per-hop justification and a pathology
// class. Probes are the platform's retained population.
func ExplainCatchment(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe, group string) (CatchmentExplanation, error) {
	rep := representative(probes, group)
	if rep == nil {
		return CatchmentExplanation{}, fmt.Errorf("glass: no probe in group %q", group)
	}
	ce, _, err := newExplainer(e, dep, m).probe(rep, group, true)
	return ce, err
}

// representative returns the lowest-ID probe of a group. It matches the
// key's parts against each probe instead of formatting every probe's key.
func representative(probes []*atlas.Probe, group string) *atlas.Probe {
	city, asnText, _ := strings.Cut(group, "|")
	asn, err := strconv.ParseUint(asnText, 10, 32)
	if err != nil || strconv.FormatUint(asn, 10) != asnText {
		return nil // not a key GroupKey produces
	}
	var rep *atlas.Probe
	for _, p := range probes {
		if p.City != city || uint64(p.ASN) != asn {
			continue
		}
		if rep == nil || p.ID < rep.ID {
			rep = p
		}
	}
	return rep
}

// explainer evaluates probe catchments against one engine and deployment.
// It memoises the nearest announced site per (prefix, client city) and
// carves the per-group hop summaries out of shared chunks, so a Capture
// costs one summary slot per hop and one nearest-site scan per distinct
// (prefix, city) pair.
type explainer struct {
	e    *bgp.Engine
	dep  *cdn.Deployment
	m    *atlas.Measurer
	near map[nearKey]nearSite
	hops []hopSummary // the chunk the next group's summaries are cut from
}

type nearKey struct {
	prefix netip.Prefix
	city   string
}

type nearSite struct {
	site string
	km   float64
}

// newExplainer binds the measurer to e, so explaining an engine fork (a
// what-if world) takes routing from e and measurement noise from the
// measurer's own seed.
func newExplainer(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer) *explainer {
	return &explainer{e: e, dep: dep, m: m.WithEngine(e), near: map[nearKey]nearSite{}}
}

// hopChunk is how many hop summaries one arena chunk holds.
const hopChunk = 4096

// alloc returns n zeroed hop summaries from the current chunk.
func (x *explainer) alloc(n int) []hopSummary {
	if len(x.hops)+n > cap(x.hops) {
		x.hops = make([]hopSummary, 0, max(n, hopChunk))
	}
	i := len(x.hops)
	x.hops = x.hops[:i+n]
	return x.hops[i : i+n : i+n]
}

// nearest is nearestAnnouncedSite, memoised per (prefix, city).
func (x *explainer) nearest(prefix netip.Prefix, city string) (string, float64) {
	k := nearKey{prefix, city}
	if n, ok := x.near[k]; ok {
		return n.site, n.km
	}
	site, km := nearestAnnouncedSite(x.e, x.dep, prefix, city)
	x.near[k] = nearSite{site, km}
	return site, km
}

// probe builds the catchment explanation of one probe, keyed as group, and
// the hop summaries its class (and later Diff attributions) come from. full
// also builds the explanation's hop chain (Exp); Capture leaves it empty.
func (x *explainer) probe(p *atlas.Probe, group string, full bool) (CatchmentExplanation, []hopSummary, error) {
	region, ok := x.dep.RegionForCountry(p.Country)
	if !ok {
		return CatchmentExplanation{}, nil, fmt.Errorf("glass: %s maps no region for country %s", x.dep.Name, p.Country)
	}
	ce := CatchmentExplanation{
		Group:   group,
		City:    p.City,
		ASN:     p.ASN,
		Country: p.Country,
		Area:    p.Area().String(),
		Region:  region.Name,
		Prefix:  region.Prefix,
	}
	ce.NearestSite, ce.NearestKm = x.nearest(region.Prefix, p.City)
	fwd, ok := x.m.Forward(p, region.Prefix)
	if !ok {
		ce.Class = NoRegionalRoute
		return ce, nil, nil
	}
	ce.Served = true
	ce.Site = fwd.Site
	ce.SiteCity = fwd.SiteCity()
	ce.RTTMs = x.m.RTT(p, fwd)
	ce.ActualKm = fwd.DistKm
	var hops []hopSummary
	if full {
		ce.Exp = explainForward(x.e, fwd, p.ASN, p.City)
		hops = make([]hopSummary, len(fwd.Path))
	} else {
		hops = x.alloc(len(fwd.Path))
	}
	for i, asn := range fwd.Path {
		prov, ok := x.e.Provenance(fwd.Prefix, asn)
		hops[i] = summarize(asn, &prov, ok)
	}
	ce.InflationMs = geo.FiberRTTMs(ce.ActualKm) - geo.FiberRTTMs(ce.NearestKm)
	ce.Class = classify(ce.InflationMs, ce.City, ce.SiteCity, hops)
	return ce, hops, nil
}

// nearestAnnouncedSite returns the announced site of the prefix nearest to
// the client city (great-circle), with deterministic site-ID tie-break.
func nearestAnnouncedSite(e *bgp.Engine, dep *cdn.Deployment, prefix netip.Prefix, city string) (string, float64) {
	bestSite, bestKm := "", 0.0
	for _, a := range e.Announcements(prefix) {
		s, ok := dep.SiteByID(a.Site)
		if !ok {
			continue
		}
		d := bgp.CityDistanceKm(city, s.City)
		if bestSite == "" || d < bestKm || (d == bestKm && a.Site < bestSite) {
			bestSite, bestKm = a.Site, d
		}
	}
	return bestSite, bestKm
}

// classify assigns the pathology class of a served catchment from client
// city and serving site city: efficient when inflation is under the
// threshold, otherwise the decision step of the first hop (client-outward)
// that rejected a route toward a strictly closer site — policy steps mean
// policy-over-geography, tie-breaks mean hot-potato egress, and no such hop
// means the closer site is simply unreachable from this path
// (no-regional-route).
func classify(inflationMs float64, city, siteCity string, hops []hopSummary) Pathology {
	if inflationMs <= InflationThresholdMs {
		return Efficient
	}
	actualKm := bgp.CityDistanceKm(city, siteCity)
	for i := range hops {
		h := &hops[i]
		if !h.hasRunner || bgp.CityDistanceKm(city, h.runnerCity.String()) >= actualKm {
			continue
		}
		switch h.step {
		case bgp.StepLocalPref, bgp.StepPathLen, bgp.StepCommunity:
			return PolicyOverGeography
		case bgp.StepTieBreak:
			return HotPotatoEgress
		}
	}
	return NoRegionalRoute
}

// GroupView is one probe group's captured catchment state: the compact,
// diffable form of a CatchmentExplanation.
type GroupView struct {
	Group       string       `json:"group"`
	Prefix      netip.Prefix `json:"prefix"`
	Served      bool         `json:"served"`
	Site        string       `json:"site,omitempty"`
	SiteCity    string       `json:"site_city,omitempty"`
	RTTMs       float64      `json:"rtt_ms,omitempty"`
	InflationMs float64      `json:"inflation_ms"`
	Class       Pathology    `json:"class"`

	hops []hopSummary
}

// PrefixSites lists the sites announcing one prefix at capture time.
type PrefixSites struct {
	Prefix string   `json:"prefix"`
	Sites  []string `json:"sites"`
}

// CatchmentSet is a full captured catchment state of a deployment: every
// <city,AS> group of the probe population, sorted by group key, plus the
// announcement state needed to attribute later moves to site operations.
type CatchmentSet struct {
	Dep       string        `json:"dep"`
	Groups    []GroupView   `json:"groups"`
	Announced []PrefixSites `json:"announced"`
}

// Capture snapshots the catchment of every probe group. It is a pure
// function of engine state and the probe set, so two captures of identical
// worlds are deeply equal. The measurer is rebound to e, so capturing an
// engine fork (a what-if world) works with the shared measurer: routing
// comes from e, measurement noise from the measurer's own seed.
func Capture(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe) (CatchmentSet, error) {
	type groupID struct {
		city string
		asn  topo.ASN
	}
	reps := map[groupID]*atlas.Probe{}
	for _, p := range probes {
		k := groupID{p.City, p.ASN}
		if rep, ok := reps[k]; !ok || p.ID < rep.ID {
			reps[k] = p
		}
	}
	type group struct {
		key string
		rep *atlas.Probe
	}
	groups := make([]group, 0, len(reps))
	for _, p := range reps {
		groups = append(groups, group{p.GroupKey(), p})
	}
	slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	x := newExplainer(e, dep, m)
	set := CatchmentSet{Dep: dep.Name, Groups: make([]GroupView, 0, len(groups))}
	for _, g := range groups {
		ce, hops, err := x.probe(g.rep, g.key, false)
		if err != nil {
			return CatchmentSet{}, err
		}
		set.Groups = append(set.Groups, GroupView{
			Group:       ce.Group,
			Prefix:      ce.Prefix,
			Served:      ce.Served,
			Site:        ce.Site,
			SiteCity:    ce.SiteCity,
			RTTMs:       ce.RTTMs,
			InflationMs: ce.InflationMs,
			Class:       ce.Class,
			hops:        hops,
		})
	}
	for _, prefix := range e.Prefixes() {
		anns := e.Announcements(prefix)
		if len(anns) == 0 {
			continue
		}
		ps := PrefixSites{Prefix: prefix.String()}
		for _, a := range anns {
			ps.Sites = append(ps.Sites, a.Site)
		}
		slices.Sort(ps.Sites)
		set.Announced = append(set.Announced, ps)
	}
	slices.SortFunc(set.Announced, func(a, b PrefixSites) int { return strings.Compare(a.Prefix, b.Prefix) })
	return set, nil
}

// announcedSite reports whether a site announced the prefix at capture time.
func (s *CatchmentSet) announcedSite(prefix netip.Prefix, site string) bool {
	key := prefix.String()
	for _, ps := range s.Announced {
		if ps.Prefix == key {
			return slices.Contains(ps.Sites, site)
		}
	}
	return false
}
