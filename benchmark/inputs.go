package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/topo"
)

// Every input comes from the --seed argument; the program sees only what
// is generated here.

// unitPattern is the fault mix of one block of fault units, shuffled per
// block by the seed. Fixing the counts per block (rather than drawing each
// unit's kind) keeps the event mix, and so the cost per event, the same
// from seed to seed; the seed still picks every target and the order.
var unitPattern = []string{"site", "site", "site", "link", "link", "link", "ixp", "crowd", "flap", "flap"}

// faultStream returns the events of n fault units for dep. Each unit is a
// dynamics.Generate fault of one class — a site outage, link failure, IXP
// outage or flash crowd paired with its repair, or a self-restoring
// re-announcement flap — re-timed onto one schedule: unit i starts at tick
// 1+10i and is repaired 5 ticks later, before the next unit starts, so the
// stream never faults an already-faulted entity.
func faultStream(seed int64, n int, tp *topo.Topology, dep *cdn.Deployment) ([]dynamics.Event, error) {
	perKind := map[string]int{}
	for _, k := range unitPattern {
		perKind[k]++
	}
	blocks := (n + len(unitPattern) - 1) / len(unitPattern)
	queues := map[string][][]dynamics.Event{}
	for i, kind := range []string{"site", "link", "ixp", "crowd", "flap"} {
		cfg := dynamics.GenConfig{Seed: seed*7919 + int64(i), Faults: blocks * perKind[kind]}
		switch kind {
		case "site":
			cfg.PSite = 1
		case "link":
			cfg.PLink = 1
		case "ixp":
			cfg.PIXP = 1
		case "crowd":
			cfg.PCrowd = 1
		case "flap":
			cfg.PFlap = 1
		}
		sc, err := dynamics.Generate(cfg, tp, dep)
		if err != nil {
			return nil, fmt.Errorf("generate %s faults: %w", kind, err)
		}
		// Generate emits a fault and its repair back to back; a flap is a
		// single self-restoring event.
		evs := sc.Events
		for len(evs) > 0 {
			size := 2
			if evs[0].Kind == dynamics.Reannounce {
				size = 1
			}
			queues[kind] = append(queues[kind], evs[:size])
			evs = evs[size:]
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []dynamics.Event
	for u := 0; u < n; {
		for _, j := range rng.Perm(len(unitPattern)) {
			if u == n {
				break
			}
			kind := unitPattern[j]
			q := queues[kind]
			if len(q) == 0 {
				return nil, fmt.Errorf("generator produced too few %s faults", kind)
			}
			unit := q[0]
			queues[kind] = q[1:]
			onset := 1 + 10*u
			for k, ev := range unit {
				ev.At = onset + 5*k
				out = append(out, ev)
			}
			u++
		}
	}
	return out, nil
}

// eventBody renders events as a POST /events body in the dynamics DSL.
func eventBody(evs []dynamics.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// burstSizes is the serve-burst cycle: every cycle posts one burst of each
// size, in an order the seed shuffles. A run is a whole number of cycles,
// so every run sees the same mixture of burst sizes; cycles are kept short
// (about 3s on a 2-vCPU box) so the last one overruns the run's time by
// little.
var burstSizes = []int{1, 8, 32}

// warmupBurst is the size of the unmeasured burst that fills the server's
// history ring and grows its heap before timing starts.
const warmupBurst = 16

// burstCycle returns cycle c's burst sizes.
func burstCycle(seed int64, c int) []int {
	rng := rand.New(rand.NewSource(seed*104729 + int64(c)))
	out := make([]int, len(burstSizes))
	for i, j := range rng.Perm(len(burstSizes)) {
		out[i] = burstSizes[j]
	}
	return out
}

// Query mix of the serve-read dashboard: mostly cheap snapshot reads,
// plus a few catchment, explain and diff queries (counts per block of 100).
// The heavy reads stay rare — a /catchment encodes for ~25ms and an
// /explain runs ~5ms on one connection that is due every 10ms — so the
// median query does not queue even when the box runs at half speed.
var queryMix = []struct {
	kind   string
	weight int
}{
	{"load", 30},
	{"status", 15},
	{"healthz", 15},
	{"timeseries", 20},
	{"alerts", 11},
	{"catchment", 2},
	{"explain", 3},
	{"diff", 4},
}

// querySchedule lays out n query kinds and their arguments from the seed:
// every block of 100 queries holds each kind exactly its weight's times, in
// a seeded order (so the heavy reads, and the work and allocation they
// bring, are the same count in every run), with a seeded probe group for
// each /explain and, for half the /timeseries reads, one seeded series (the
// other half read the index).
func querySchedule(seed int64, n int, groups, series []string) (kinds, args []string) {
	rng := rand.New(rand.NewSource(seed*15485863 + 1))
	var block []string
	for _, q := range queryMix {
		for i := 0; i < q.weight; i++ {
			block = append(block, q.kind)
		}
	}
	kinds = make([]string, 0, n)
	for len(kinds) < n {
		for _, j := range rng.Perm(len(block)) {
			if len(kinds) < n {
				kinds = append(kinds, block[j])
			}
		}
	}
	args = make([]string, n)
	for i, k := range kinds {
		switch {
		case k == "explain":
			args[i] = groups[rng.Intn(len(groups))]
		case k == "timeseries" && rng.Intn(2) == 1:
			args[i] = series[rng.Intn(len(series))]
		}
	}
	return kinds, args
}

// digestOf hashes a run's generated inputs (or any other parts) so two
// runs can be shown to have seen the same ones.
func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
