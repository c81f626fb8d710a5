package atlas

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"anysim/internal/topo"
)

// TestJitterSaltIndependence: the same (probe, prefix) measured under
// different salts gives different-but-bounded noise, and the same salt is
// perfectly reproducible.
func TestJitterSaltIndependence(t *testing.T) {
	f := newFixture(t)
	p := f.platform.Retained()[0]
	fwd, ok := f.measurer.Forward(p, f.prefix)
	if !ok {
		t.Fatal("no forward")
	}
	base := f.measurer.RTTSalted(p, fwd, "a")
	if again := f.measurer.RTTSalted(p, fwd, "a"); again != base {
		t.Fatalf("same salt not reproducible: %v vs %v", base, again)
	}
	differs := false
	for _, salt := range []string{"b", "c", "d", "e"} {
		v := f.measurer.RTTSalted(p, fwd, salt)
		if v != base {
			differs = true
		}
		if d := v - base; d > f.measurer.Model.JitterMs || d < -f.measurer.Model.JitterMs {
			t.Fatalf("salt noise %v exceeds jitter bound %v", d, f.measurer.Model.JitterMs)
		}
	}
	if !differs {
		t.Error("all salts produced identical RTTs")
	}
}

// TestRTTSaltedBounds property-checks that salted RTTs never dip below the
// geometric floor for any salt.
func TestRTTSaltedBounds(t *testing.T) {
	f := newFixture(t)
	probes := f.platform.Retained()
	check := func(pidx uint16, salt string) bool {
		p := probes[int(pidx)%len(probes)]
		fwd, ok := f.measurer.Forward(p, f.prefix)
		if !ok {
			return true
		}
		rtt := f.measurer.RTTSalted(p, fwd, salt)
		floor := fwd.DistKm * f.measurer.Model.Inflation / 100 // FiberRTTMs
		return rtt >= floor && rtt < floor+f.measurer.Model.JitterMs+p.AccessMs+10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestProbeAddrRoundTrip: every probe's address is owned by its AS and
// located (in ground truth terms) at its city block.
func TestProbeAddrRoundTrip(t *testing.T) {
	f := newFixture(t)
	for _, p := range f.platform.Retained()[:200] {
		owner, ok := f.addr.OwnerOf(p.Addr)
		if !ok || owner != p.ASN {
			t.Fatalf("probe %d addr %v owned by %v, want %v", p.ID, p.Addr, owner, p.ASN)
		}
	}
}

// TestDNSModeStrings pins the mode names used in reports.
func TestDNSModeStrings(t *testing.T) {
	if LDNS.String() != "Local DNS" || ADNS.String() != "Authoritative DNS" {
		t.Errorf("mode names: %q, %q", LDNS.String(), ADNS.String())
	}
}

// TestTracerouteDeterministic: two traceroutes of the same probe/address
// are identical hop for hop.
func TestTracerouteDeterministic(t *testing.T) {
	f := newFixture(t)
	vip := VIPOf(f.prefix)
	p := f.platform.Retained()[3]
	t1, ok1 := f.measurer.Traceroute(p, vip)
	t2, ok2 := f.measurer.Traceroute(p, vip)
	if !ok1 || !ok2 || len(t1.Hops) != len(t2.Hops) {
		t.Fatalf("traceroutes differ in shape: %v/%v", ok1, ok2)
	}
	for i := range t1.Hops {
		if t1.Hops[i] != t2.Hops[i] {
			t.Fatalf("hop %d differs: %+v vs %+v", i, t1.Hops[i], t2.Hops[i])
		}
	}
}

// TestSeededFloat64MatchesFreshSource: the jump-ahead draw equals the first
// Float64 of a freshly seeded math/rand generator on the seeds where the
// seed reduction has edges (0, multiples and neighbours of 2³¹−1, the zero
// substitute, the int64 extremes) and on 10⁵ random seeds.
func TestSeededFloat64MatchesFreshSource(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 42, m, -m, m - 1, m + 1, 2 * m, -2 * m, 1 << 31,
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m), 89482311, -89482311,
		89482311 + m, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -0x61c8864680b583eb}
	src := rand.NewSource(0)
	check := func(s int64) {
		t.Helper()
		src.Seed(s)
		if got, want := seededFloat64(uint64(s)), rand.New(src).Float64(); got != want {
			t.Fatalf("seed %d: jump-ahead draw %v, math/rand %v", s, got, want)
		}
	}
	for _, s := range seeds {
		check(s)
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 100_000; i++ {
		check(int64(r.Uint64()))
	}
}

// TestFirstFloat64Fallback: register words whose sum rounds to 1.0 make
// Float64 draw again, so the word-level helper hands the seed to math/rand
// instead of returning 1.
func TestFirstFloat64Fallback(t *testing.T) {
	if f := float64(int64(math.MaxInt64)) / (1 << 63); f != 1 {
		t.Fatalf("MaxInt63 / 2^63 = %v, want a value that rounds to 1", f)
	}
	for _, seed := range []uint64{0, 7, 1 << 63} {
		want := rand.New(rand.NewSource(int64(seed))).Float64()
		for _, w := range [][2]int64{{math.MaxInt64, 0}, {math.MaxInt64 - 100, 100}, {-1, math.MinInt64}} {
			if got := firstFloat64(seed, w[0], w[1]); got != want {
				t.Fatalf("seed %d words %v: got %v, want math/rand's %v", seed, w, got, want)
			}
		}
	}
	if got := firstFloat64(0, 1<<62, 0); got != 0.5 {
		t.Fatalf("words summing to 2^62: got %v, want 0.5", got)
	}
}

// TestHashKeysMatchFormat: the hand-built jitter and site-router keys are the
// bytes fmt.Fprintf wrote before, so every noise draw (and every committed
// result that carries one) is unchanged.
func TestHashKeysMatchFormat(t *testing.T) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("32.0.0.0/16"), netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("2001:db8::/32"), {}}
	for _, seed := range []int64{0, 2023, -5, math.MinInt64} {
		m := &Measurer{Seed: seed}
		for _, id := range []int{0, 17, 123456} {
			p := &Probe{ID: id}
			for _, prefix := range prefixes {
				for _, salt := range []string{"", "www.stamps.com", "a|b", strings.Repeat("long-salt", 20)} {
					var want bytes.Buffer
					fmt.Fprintf(&want, "%d|%d|%s|%s", seed, id, prefix, salt)
					got := m.jitterKey(nil, p, prefix, salt)
					if string(got) != want.String() {
						t.Fatalf("jitter key %q, fmt %q", got, want.String())
					}
				}
			}
			for _, origin := range []topo.ASN{0, 64512, topo.CDNBase, math.MaxUint32} {
				for _, site := range []string{"", "fra", "iad-2"} {
					want := fmt.Sprintf("srv|%d|%d|%s|%d", seed, origin, site, id)
					if got := m.siteRouterKey(nil, origin, site, id); string(got) != want {
						t.Fatalf("site-router key %q, fmt %q", got, want)
					}
				}
			}
		}
	}
}

// TestGroupKeyMatchesFormat: GroupKey is the "%s|%d" form the paper's
// <city,AS> groups have always been keyed by.
func TestGroupKeyMatchesFormat(t *testing.T) {
	for _, p := range []*Probe{{City: "AMS", ASN: 10077}, {City: "FRA", ASN: 0}, {City: "SIN", ASN: math.MaxUint32}, {}} {
		if got, want := p.GroupKey(), fmt.Sprintf("%s|%d", p.City, p.ASN); got != want {
			t.Fatalf("GroupKey %q, Sprintf %q", got, want)
		}
	}
}
