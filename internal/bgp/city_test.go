package bgp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/topo"
)

// TestCityIDOrder pins what route ordering relies on: ids compare exactly
// like their IATA codes, and id <-> code conversion round-trips.
func TestCityIDOrder(t *testing.T) {
	cities := geo.Cities()
	if len(cityTab.codes) != len(cities) {
		t.Fatalf("city table has %d codes, geo has %d cities", len(cityTab.codes), len(cities))
	}
	ids := make([]CityID, len(cities))
	for i, c := range cities {
		ids[i] = cityOf(c.IATA)
		if got := ids[i].String(); got != c.IATA {
			t.Fatalf("cityOf(%q).String() = %q", c.IATA, got)
		}
	}
	for i, a := range ids {
		for j, b := range ids {
			byID := 0
			if a < b {
				byID = -1
			} else if a > b {
				byID = 1
			}
			if want := strings.Compare(cities[i].IATA, cities[j].IATA); byID != want {
				t.Fatalf("%s vs %s: id order %d, code order %d", cities[i].IATA, cities[j].IATA, byID, want)
			}
		}
	}
	for id := range CityID(len(cityTab.codes)) {
		if back := cityOf(id.String()); back != id {
			t.Fatalf("id %d -> %q -> id %d", id, id.String(), back)
		}
	}
}

// TestCityKm checks the flat distance matrix against geo.DistanceKm.
func TestCityKm(t *testing.T) {
	for _, pair := range [][2]string{{"FRA", "SIN"}, {"IAD", "IAD"}, {"SYD", "SAO"}} {
		a, b := geo.MustCity(pair[0]), geo.MustCity(pair[1])
		if got, want := cityKm(cityOf(pair[0]), cityOf(pair[1])), geo.DistanceKm(a.Coord, b.Coord); got != want {
			t.Errorf("cityKm(%s, %s) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	cities := geo.Cities()
	for _, a := range cities {
		for _, b := range cities {
			if got, want := CityDistanceKm(a.IATA, b.IATA), geo.DistanceKm(geo.MustCity(a.IATA).Coord, geo.MustCity(b.IATA).Coord); got != want {
				t.Fatalf("CityDistanceKm(%s, %s) = %v, want %v", a.IATA, b.IATA, got, want)
			}
		}
	}
}

// refRouteCmp is routeCmp keyed on city codes, as the engine compared
// routes before cities became ids.
func refRouteCmp(a, b Route) int {
	if a.DownKm != b.DownKm {
		if a.DownKm < b.DownKm {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.Handoff(), b.Handoff()); c != 0 {
		return c
	}
	if c := strings.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	if c := slices.Compare(a.Path, b.Path); c != 0 {
		return c
	}
	return slices.Compare(refCodes(a.Cities), refCodes(b.Cities))
}

func refCodes(ids []CityID) []string {
	out := make([]string, len(ids))
	for i, c := range ids {
		out[i] = c.String()
	}
	return out
}

// refCapClass is the string-keyed capClass the engine ran before cities
// became ids: per-neighbour byCity slices, handoffs compared as codes.
func refCapClass(routes []Route, cap int, arbitrary bool) []Route {
	if len(routes) == 0 {
		return nil
	}
	if cap <= 0 {
		cap = 1
	}
	minLen := routes[0].Len()
	for _, r := range routes {
		if r.Len() < minLen {
			minLen = r.Len()
		}
	}
	type nbrGroup struct {
		nbr    topo.ASN
		byCity []Route
		bestKm float64
	}
	var groups []nbrGroup
	for _, r := range routes {
		if r.Len() != minLen {
			continue
		}
		gi := -1
		for i := range groups {
			if groups[i].nbr == r.Path[0] {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, nbrGroup{nbr: r.Path[0], bestKm: r.DownKm})
			gi = len(groups) - 1
		}
		g := &groups[gi]
		ci := -1
		for i := range g.byCity {
			if g.byCity[i].Handoff() == r.Handoff() {
				ci = i
				break
			}
		}
		if ci < 0 {
			g.byCity = append(g.byCity, r)
		} else if refRouteCmp(r, g.byCity[ci]) < 0 {
			g.byCity[ci] = r
		}
		if r.DownKm < g.bestKm {
			g.bestKm = r.DownKm
		}
	}
	const bucketKm = 4000.0
	slices.SortFunc(groups, func(a, b nbrGroup) int {
		if arbitrary {
			ba, bb := int(a.bestKm/bucketKm), int(b.bestKm/bucketKm)
			if ba != bb {
				return ba - bb
			}
		} else if a.bestKm != b.bestKm {
			if a.bestKm < b.bestKm {
				return -1
			}
			return 1
		}
		if a.nbr < b.nbr {
			return -1
		}
		if a.nbr > b.nbr {
			return 1
		}
		return 0
	})
	if len(groups) > cap {
		groups = groups[:cap]
	}
	var out []Route
	for _, g := range groups {
		out = append(out, g.byCity...)
	}
	slices.SortFunc(out, refRouteCmp)
	if len(out) > MaxRoutesPerClass {
		out = out[:MaxRoutesPerClass]
	}
	return out
}

// TestCapClassMatchesReference runs capClass and the string-keyed reference
// on randomized offer sets drawn from the seed-7 small world's converged
// routes, perturbed toward the cases the index-based grouping must get
// right: duplicate (neighbour, handoff) pairs, equal downstream carriage,
// and routes that differ only in FinalIXP (which tie under routeCmp, so
// only an identical pre-sort sequence yields an identical result).
func TestCapClassMatchesReference(t *testing.T) {
	tp, e, _ := generatedCDNWorld(t, 7)
	var pool []Route
	for _, asn := range tp.ASNs() {
		for c := FromCustomer; c <= FromProvider; c++ {
			pool = append(pool, e.RoutesByClass(pfxGlobal, asn, c)...)
		}
	}
	if len(pool) < 100 {
		t.Fatalf("only %d routes in the seed-7 world", len(pool))
	}
	rng := rand.New(rand.NewSource(7))
	pick := func() Route {
		r := pool[rng.Intn(len(pool))]
		r.Path = slices.Clone(r.Path)
		r.Cities = slices.Clone(r.Cities)
		return r
	}
	ixps := []string{"", "IX-A", "IX-B"}
	for trial := 0; trial < 2000; trial++ {
		var offers []Route
		for range 1 + rng.Intn(24) {
			r := pick()
			switch rng.Intn(5) {
			case 0: // another neighbour's session at an existing handoff
				if len(offers) > 0 {
					o := offers[rng.Intn(len(offers))]
					r.Path[0], r.Cities[0] = o.Path[0], o.Cities[0]
				}
			case 1: // equal downstream carriage
				if len(offers) > 0 {
					r.DownKm = offers[rng.Intn(len(offers))].DownKm
				}
			case 2: // a twin that differs only in FinalIXP
				if len(offers) > 0 {
					r = offers[rng.Intn(len(offers))]
					r.FinalIXP = ixps[rng.Intn(len(ixps))]
				}
			}
			offers = append(offers, r)
		}
		// Equal path lengths make every offer compete.
		if rng.Intn(2) == 0 {
			for i := range offers {
				offers[i].Path = offers[i].Path[:1]
				offers[i].Cities = offers[i].Cities[:1]
			}
		}
		cap := []int{1, 2, MaxRoutesPerClass}[rng.Intn(3)]
		arb := rng.Intn(2) == 0
		got := capClass(slices.Clone(offers), cap, arb)
		want := refCapClass(slices.Clone(offers), cap, arb)
		if !routesEqual(got, want) {
			t.Fatalf("trial %d (cap %d, arbitrary %v): capClass diverges from the reference\n got %v\nwant %v", trial, cap, arb, got, want)
		}
	}
}
