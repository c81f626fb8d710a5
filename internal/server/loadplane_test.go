package server

import (
	"math"
	"strings"
	"testing"

	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
)

// TestServeAndScenarioShareLoadPlane pins the load-plane invariant: one
// event list fed to Server.Apply and to Runner.Run (with Series, Eval and
// Model set) records bit-identical site.*, load.* and region.* points. The
// list overlaps two flash crowds in different areas with a routing fault
// and its repair, so the flash fold order and the routing changes both
// reach the load plane. The server's tick-0 publish (its initial state) has
// no runner counterpart and is left out of the comparison.
func TestServeAndScenarioShareLoadPlane(t *testing.T) {
	s := testServer(t, 7)
	site := busiestSite(t, s)
	events := []dynamics.Event{
		{At: 1, Kind: dynamics.FlashBegin, Area: geo.EMEA, Factor: 3},
		{At: 2, Kind: dynamics.FlashBegin, Area: geo.LatAm, Factor: 2.5},
		{At: 3, Kind: dynamics.SiteDown, Site: site},
		{At: 4, Kind: dynamics.FlashEnd, Area: geo.EMEA},
		{At: 5, Kind: dynamics.SiteUp, Site: site},
		{At: 6, Kind: dynamics.FlashEnd, Area: geo.LatAm},
	}
	for _, ev := range events {
		if _, err := s.Apply(ev); err != nil {
			t.Fatalf("server %s: %v", ev, err)
		}
	}

	w := testWorld(t, 7)
	dep := w.Imperva.IM6
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	r := dynamics.NewRunner(w.Engine, dep)
	r.Series = ts.New(ts.Config{})
	r.Eval = traffic.NewEvaluator(w.Engine, dep, model, traffic.CapacityConfig{})
	r.Model = model
	if _, err := r.Run(&dynamics.Scenario{Name: "load-plane", Events: events}); err != nil {
		t.Fatal(err)
	}

	loadPlane := func(db *ts.DB) []string {
		var out []string
		for _, name := range db.Names() {
			if strings.HasPrefix(name, "site.") || strings.HasPrefix(name, "load.") || strings.HasPrefix(name, "region.") {
				out = append(out, name)
			}
		}
		return out
	}
	served, ran := loadPlane(s.Series()), loadPlane(r.Series)
	if strings.Join(served, ",") != strings.Join(ran, ",") {
		t.Fatalf("load-plane series differ:\nserver: %v\nrunner: %v", served, ran)
	}
	if len(served) == 0 {
		t.Fatal("no load-plane series recorded")
	}
	for _, name := range served {
		a, _ := s.Series().Query(name, 1, 1<<62, 0)
		b, _ := r.Series.Query(name, 1, 1<<62, 0)
		if len(a) != len(events) || len(b) != len(events) {
			t.Fatalf("%s: server has %d points, runner %d; want %d", name, len(a), len(b), len(events))
		}
		for i := range a {
			if a[i].Tick != b[i].Tick || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
				t.Fatalf("%s point %d: server (%d, %v), runner (%d, %v)", name, i, a[i].Tick, a[i].V, b[i].Tick, b[i].V)
			}
		}
	}
}
