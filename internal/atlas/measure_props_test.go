package atlas

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

// TestSeededFloat64MatchesFreshSource: a pooled, re-seeded generator draws
// exactly the value a freshly built one does, including when the same
// generator is reused across seeds and goroutines.
func TestSeededFloat64MatchesFreshSource(t *testing.T) {
	seeds := []uint64{0, 1, 42, 1 << 63, ^uint64(0), 0x9e3779b97f4a7c15}
	for round := 0; round < 3; round++ {
		for _, s := range seeds {
			want := rand.New(rand.NewSource(int64(s))).Float64()
			if got := seededFloat64(s); got != want {
				t.Fatalf("seed %#x round %d: pooled draw %v, fresh source %v", s, round, got, want)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := uint64(g*1000 + i)
				if got, want := seededFloat64(s), rand.New(rand.NewSource(int64(s))).Float64(); got != want {
					t.Errorf("seed %d: pooled draw %v, fresh source %v", s, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
