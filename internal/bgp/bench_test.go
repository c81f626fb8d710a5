package bgp

import (
	"net/netip"
	"testing"

	"anysim/internal/topo"
)

func benchWorld(b *testing.B) (*topo.Topology, *Engine, []SiteAnnouncement, netip.Prefix) {
	b.Helper()
	tp, err := topo.Generate(topo.GenConfig{Seed: 8, NumTier1: 6, NumTier2: 60, NumStub: 800, NumIXP: 14})
	if err != nil {
		b.Fatal(err)
	}
	cdnAS := &topo.AS{ASN: topo.CDNBase, Name: "CDN", Tier: topo.TierCDN, Home: "US",
		Cities: []string{"IAD", "FRA", "SIN", "SYD", "SAO"}, Prefix: netip.MustParsePrefix("32.0.0.0/16")}
	if err := tp.AddAS(cdnAS); err != nil {
		b.Fatal(err)
	}
	providerCities := map[topo.ASN][]string{}
	for _, city := range cdnAS.Cities {
		for _, asn := range tp.ASNs() {
			if a := tp.MustAS(asn); a.Tier == topo.Tier1 && a.PresentIn(city) {
				providerCities[asn] = append(providerCities[asn], city)
				break
			}
		}
	}
	for asn, cities := range providerCities {
		if err := tp.AddLink(topo.Link{A: cdnAS.ASN, B: asn, Type: topo.CustomerToProvider, Cities: cities}); err != nil {
			b.Fatal(err)
		}
	}
	tp.Freeze()
	anns := []SiteAnnouncement{
		{Origin: cdnAS.ASN, Site: "iad", City: "IAD"},
		{Origin: cdnAS.ASN, Site: "fra", City: "FRA"},
		{Origin: cdnAS.ASN, Site: "sin", City: "SIN"},
		{Origin: cdnAS.ASN, Site: "syd", City: "SYD"},
		{Origin: cdnAS.ASN, Site: "sao", City: "SAO"},
	}
	return tp, NewEngine(tp), anns, netip.MustParsePrefix("198.18.200.0/24")
}

// BenchmarkAnnounce measures full route convergence for a five-site anycast
// prefix over an ~870-AS topology.
func BenchmarkAnnounce(b *testing.B) {
	_, e, anns, prefix := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Announce(prefix, anns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalReconvergence compares a single-site withdrawal plus
// restore through the incremental API against the same transition done with
// full recomputes. The incremental path must win: it only revisits the ASes
// whose offer sets can change. incremental-prov repeats the incremental
// transition with provenance on, where each scoped pass also records drops
// and rebuilds the dirty ASes' provenance records; its allocations should
// scale with the dirty region, not the topology.
func BenchmarkIncrementalReconvergence(b *testing.B) {
	_, e, anns, prefix := benchWorld(b)
	if err := e.Announce(prefix, anns); err != nil {
		b.Fatal(err)
	}
	withdrawRestore := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.WithdrawSite(prefix, "fra"); err != nil {
				b.Fatal(err)
			}
			if err := e.AnnounceSite(prefix, anns[1]); err != nil {
				b.Fatal(err)
			}
		}
		st := e.LastReconvergeStats()
		b.ReportMetric(float64(st.Dirty), "dirty-ases")
		if st.Full {
			b.Error("incremental path fell back to full recompute")
		}
	}
	b.Run("incremental", withdrawRestore)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		minus := append([]SiteAnnouncement(nil), anns[:1]...)
		minus = append(minus, anns[2:]...)
		for i := 0; i < b.N; i++ {
			if err := e.Announce(prefix, minus); err != nil {
				b.Fatal(err)
			}
			if err := e.Announce(prefix, anns); err != nil {
				b.Fatal(err)
			}
		}
	})
	e.SetProvenance(true)
	if err := e.Announce(prefix, anns); err != nil {
		b.Fatal(err)
	}
	b.Run("incremental-prov", withdrawRestore)
}

// BenchmarkEngineFork measures the copy-on-write snapshot itself and one
// full steering trial unit on top of it: fork the engine, apply a prepend
// change via incremental reconvergence on the fork, drop it. This is the
// per-candidate cost of the parallel trial loop in internal/traffic.
func BenchmarkEngineFork(b *testing.B) {
	_, e, anns, prefix := benchWorld(b)
	if err := e.Announce(prefix, anns); err != nil {
		b.Fatal(err)
	}
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if f := e.Fork(); f == nil {
				b.Fatal("nil fork")
			}
		}
	})
	b.Run("fork-trial", func(b *testing.B) {
		b.ReportAllocs()
		trial := anns[1]
		trial.Prepend = 2
		for i := 0; i < b.N; i++ {
			f := e.Fork()
			if err := f.AnnounceSite(prefix, trial); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLookup measures catchment queries against a converged prefix.
func BenchmarkLookup(b *testing.B) {
	tp, e, anns, prefix := benchWorld(b)
	if err := e.Announce(prefix, anns); err != nil {
		b.Fatal(err)
	}
	var stubs []topo.ASN
	for _, asn := range tp.ASNs() {
		if tp.MustAS(asn).Tier == topo.TierStub {
			stubs = append(stubs, asn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asn := stubs[i%len(stubs)]
		e.Lookup(prefix, asn, tp.MustAS(asn).Cities[0])
	}
}
