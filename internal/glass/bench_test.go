package glass

import "testing"

// BenchmarkCapture measures one full catchment capture of the IM-6
// deployment on the small world with provenance on: every probe group's
// forward, RTT, nearest announced site, hop summaries and class.
func BenchmarkCapture(b *testing.B) {
	w := provWorld(b, 7)
	probes := w.Platform.Retained()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Capture(w.Engine, w.Imperva.IM6, w.Measurer, probes); err != nil {
			b.Fatal(err)
		}
	}
}
