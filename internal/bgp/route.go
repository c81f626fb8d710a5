// Package bgp implements policy routing over a topo.Topology: Gao-Rexford
// route propagation, best-path selection with the relationship preferences
// the paper's case studies hinge on (customer > public peer > route-server
// peer > provider, §5.4), per-origin-site route identity so anycast
// catchments can be computed, and hot-potato egress selection among
// equally-preferred routes.
package bgp

import (
	"fmt"
	"net/netip"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

// RelClass classifies how an AS learned a route; it determines local
// preference. The order of the constants is the preference order: lower
// value = more preferred.
type RelClass uint8

// Route learning classes, most preferred first. FromOrigin marks the
// origin's own routes. Routers prefer public peers over route-server peers
// (paper §5.4, citing Schlinker et al.).
const (
	FromOrigin RelClass = iota
	FromCustomer
	FromPublicPeer
	FromRSPeer
	FromProvider
)

var relClassNames = map[RelClass]string{
	FromOrigin:     "origin",
	FromCustomer:   "customer",
	FromPublicPeer: "public-peer",
	FromRSPeer:     "rs-peer",
	FromProvider:   "provider",
}

// String returns a short class name.
func (r RelClass) String() string {
	if s, ok := relClassNames[r]; ok {
		return s
	}
	return "unknown"
}

// Exportable reports whether a route of this class may be exported to peers
// and providers under Gao-Rexford export rules (only customer and own
// routes are).
func (r RelClass) Exportable() bool { return r == FromOrigin || r == FromCustomer }

// classify maps a topology link to the RelClass the receiving AS assigns to
// routes learned over it. recv must be an endpoint of the link.
func classify(l topo.Link, recv topo.ASN) RelClass {
	switch l.Type {
	case topo.CustomerToProvider:
		if l.B == recv {
			// recv is the provider: routes from its customer.
			return FromCustomer
		}
		return FromProvider
	case topo.PublicPeer:
		return FromPublicPeer
	case topo.RouteServerPeer:
		return FromRSPeer
	}
	panic(fmt.Sprintf("bgp: unknown link type %v", l.Type))
}

// Route is a path to an anycast prefix as held by one AS's RIB.
//
// Path is the AS path from the owning AS's next hop down to the origin
// (Path[0] is the neighbour the route was learned from; Path[len-1] is the
// origin AS). Cities is the parallel list of interconnection cities:
// Cities[0] is where the owning AS hands traffic to Path[0], and Cities[i]
// is where Path[i-1] hands traffic to Path[i]. Because a site announces its
// prefixes from the site's own city, Cities[len-1] is the catchment site's
// city. Cities holds dense city ids (see CityID); Handoff and SiteCity
// return the codes.
type Route struct {
	Rel RelClass
	// FinalUpstream is the AS handing traffic to the origin (the owner of
	// the penultimate traceroute hop when the CDN's site router does not
	// answer). It shares Rel's alignment word: together with dropping a
	// word of padding this keeps Route at its pre-policy 104 bytes, so
	// rib slice growth hits the same allocator size classes (and the
	// BenchmarkAnnounce allocation pin) as before the Comms field existed.
	FinalUpstream topo.ASN

	Path   []topo.ASN
	Cities []CityID
	Site   string // identity of the announcing anycast site

	// DownKm is the total intra-AS carriage distance, in kilometres, from
	// the handoff at Cities[0] down to the site. It excludes the owning
	// AS's own carriage from wherever traffic enters it to Cities[0].
	DownKm float64

	// FinalIXP is the IXP over which the final handoff to the origin
	// happens, or "" if the final link is a private interconnection. The
	// paper finds 49% of p-hop IPs belong to IXPs and are invisible in BGP.
	FinalIXP string

	// Comms is the route's interned community set (nil = none). Communities
	// are attached at the origin's edge and travel transitively: export
	// copies the pointer, never the set. Always nil when the engine has no
	// policy layer, so the no-policy path carries only this one pointer of
	// overhead.
	Comms *policy.Set
}

// Origin returns the origin AS of the route.
func (r Route) Origin() topo.ASN { return r.Path[len(r.Path)-1] }

// Len returns the AS-path length.
func (r Route) Len() int { return len(r.Path) }

// Handoff returns the city where the owning AS hands traffic to the next
// hop.
func (r Route) Handoff() string { return r.Cities[0].String() }

// SiteCity returns the city of the catchment site.
func (r Route) SiteCity() string { return r.Cities[len(r.Cities)-1].String() }

// String renders the route for debugging.
func (r Route) String() string {
	return fmt.Sprintf("%s via %v@%s to site %s (%.0f km downstream)", r.Rel, r.Path[0], r.Cities[0], r.Site, r.DownKm)
}

// MaxPrepend caps per-announcement AS-path prepending. Operators rarely
// prepend more than a handful of hops: path-length comparison only breaks
// ties within a preference class, so additional copies past the point where
// every alternative wins buy nothing (see DESIGN.md's prepend calibration).
const MaxPrepend = 8

// SiteAnnouncement declares that an anycast site announces a prefix. Origin
// is the content network's AS; City is the site's location; Site is a
// stable site identifier (unique within the deployment).
//
// OnlyNeighbors, when non-nil, restricts the announcement to the listed
// neighbour ASes: the site only announces the prefix over sessions to them.
// This models operators that announce different prefixes to different peers
// at the same site, which is why the paper's §5.3 comparison must compute
// the *common* set of peering ASes between two networks.
//
// Prepend adds that many extra copies of Origin to the AS path the site
// exports (classic AS-path prepending, the Tangled testbed's traffic-
// engineering knob). Prepending deters neighbours that compare path length —
// shortest-path filtering within a preference class — but never overrides
// relationship preference: a provider still prefers a prepended customer
// route over any peer or provider route.
type SiteAnnouncement struct {
	Origin        topo.ASN   `json:"origin"`
	Site          string     `json:"site"`
	City          string     `json:"city"`
	OnlyNeighbors []topo.ASN `json:"only_neighbors,omitempty"`
	Prepend       int        `json:"prepend,omitempty"`
	// Communities are attached to every route this announcement seeds,
	// before the policy layer's export rules run. Announcing with
	// communities requires an engine with a policy configured (the
	// well-known scope communities are meaningless without the layer that
	// enforces them).
	Communities []policy.Community `json:"communities,omitempty"`
}

// seedPath is the AS path the announcement exports to its neighbours: the
// origin ASN repeated 1+Prepend times. With Prepend 0 this is exactly the
// single-element path the engine has always seeded.
func (a SiteAnnouncement) seedPath() []topo.ASN {
	path := make([]topo.ASN, a.Prepend+1)
	for i := range path {
		path[i] = a.Origin
	}
	return path
}

// seedCities is the city list parallel to seedPath: the announcement city
// repeated, since every prepended "hop" is the same router at the site.
func (a SiteAnnouncement) seedCities() []CityID {
	c := cityOf(a.City)
	cities := make([]CityID, a.Prepend+1)
	for i := range cities {
		cities[i] = c
	}
	return cities
}

// announcesTo reports whether the announcement is made to the given
// neighbour.
func (a SiteAnnouncement) announcesTo(nbr topo.ASN) bool {
	if a.OnlyNeighbors == nil {
		return true
	}
	for _, n := range a.OnlyNeighbors {
		if n == nbr {
			return true
		}
	}
	return false
}

// Forward describes where traffic from a (client AS, client city) pair goes
// for an announced prefix: the anycast catchment.
type Forward struct {
	Prefix netip.Prefix
	Site   string     // catchment site
	Path   []topo.ASN // full AS path including the client AS
	Cities []CityID   // handoff city ids; Cities[len-1] is the site city
	// DistKm is the one-way forwarding path length in kilometres: client
	// city to first handoff plus all downstream carriage.
	DistKm float64
	// Rel is how the client AS learned the route it uses.
	Rel RelClass
	// FinalIXP / FinalUpstream describe the last handoff (see Route).
	FinalIXP      string
	FinalUpstream topo.ASN
}

// SiteCity returns the catchment site's city.
func (f Forward) SiteCity() string { return f.Cities[len(f.Cities)-1].String() }
