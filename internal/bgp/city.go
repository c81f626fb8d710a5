package bgp

import (
	"fmt"
	"slices"
	"strings"

	"anysim/internal/geo"
)

// CityID is a dense city identifier: the rank of the city's IATA code among
// all geo cities in sorted order. Because the ranks follow code order, `<`
// on two ids agrees with strings.Compare on their codes, so route ordering
// (routeCmp, slices.Compare over city lists) is the same whether it looks at
// ids or codes. Route and Forward city lists hold ids: two bytes per hop in
// a pointer-free backing array the garbage collector never scans.
type CityID uint16

// String returns the city's IATA code.
func (c CityID) String() string { return cityTab.codes[c] }

// cityTable is the package-wide city index: codes by id, ids by code, and
// the flat pairwise great-circle distance matrix (row-major, n x n). IATA
// codes are three capital letters, so ids by code is a direct-indexed
// array over the code read as a base-26 number: interning a code costs
// three byte operations and no string hashing.
type cityTable struct {
	codes []string
	ids   []uint16 // base-26 code -> 1 + id; 0 = unknown
	km    []float64
}

// codeKey reads a three-capital-letter code as a base-26 number.
func codeKey(code string) (int, bool) {
	if len(code) != 3 {
		return 0, false
	}
	k := 0
	for i := 0; i < 3; i++ {
		c := code[i] - 'A'
		if c >= 26 {
			return 0, false
		}
		k = k*26 + int(c)
	}
	return k, true
}

// cityTab is built once from the geo dataset; it never changes afterwards,
// so every engine and fork shares it.
var cityTab = newCityTable(geo.Cities())

// newCityTable indexes cities by sorted IATA code. The explicit sort is what
// makes id order equal code order, whatever order the list arrives in.
func newCityTable(list []geo.City) *cityTable {
	list = slices.Clone(list)
	slices.SortFunc(list, func(a, b geo.City) int { return strings.Compare(a.IATA, b.IATA) })
	n := len(list)
	if n >= 1<<16 {
		panic(fmt.Sprintf("bgp: %d cities overflow CityID", n))
	}
	t := &cityTable{
		codes: make([]string, n),
		ids:   make([]uint16, 26*26*26),
		km:    make([]float64, n*n),
	}
	for i, c := range list {
		k, ok := codeKey(c.IATA)
		if !ok {
			panic(fmt.Sprintf("bgp: city code %q is not three capital letters", c.IATA))
		}
		t.codes[i] = c.IATA
		t.ids[k] = uint16(i + 1)
		for j, d := range list {
			t.km[i*n+j] = geo.DistanceKm(c.Coord, d.Coord)
		}
	}
	return t
}

// cityOf interns an IATA code, panicking on unknown cities (which indicates
// a bug, since all cities are validated at topology build time).
func cityOf(code string) CityID {
	k, ok := codeKey(code)
	if !ok || cityTab.ids[k] == 0 {
		panic(fmt.Sprintf("bgp: unknown city %q", code))
	}
	return CityID(cityTab.ids[k] - 1)
}

// citiesOf interns a list of IATA codes.
func citiesOf(codes []string) []CityID {
	out := make([]CityID, len(codes))
	for i, c := range codes {
		out[i] = cityOf(c)
	}
	return out
}

// cityKm returns the great-circle distance between two cities.
func cityKm(a, b CityID) float64 {
	return cityTab.km[int(a)*len(cityTab.codes)+int(b)]
}

// CityDistanceKm returns the great-circle distance between two IATA cities
// from the shared matrix: the value geo.DistanceKm gives for their
// coordinates, without the trigonometry. It panics on an unknown code.
func CityDistanceKm(a, b string) float64 { return cityKm(cityOf(a), cityOf(b)) }
