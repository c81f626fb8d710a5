package atlas

import (
	"testing"

	"anysim/internal/bgp"
)

// BenchmarkRTT measures one probe's round-trip time over a resolved
// forward: the path geometry plus the per-(probe, prefix) jitter draw. It
// is the per-group cost every catchment capture pays once.
func BenchmarkRTT(b *testing.B) {
	f := newFixture(b)
	probes := f.platform.Retained()
	fwds := make([]bgp.Forward, len(probes))
	for i, p := range probes {
		fwd, ok := f.measurer.Forward(p, f.prefix)
		if !ok {
			b.Fatalf("probe %d has no route", p.ID)
		}
		fwds[i] = fwd
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		j := i % len(probes)
		sum += f.measurer.RTT(probes[j], fwds[j])
	}
	if sum < 0 {
		b.Fatal("negative RTT")
	}
}
