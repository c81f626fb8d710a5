package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// setups is how many times each run builds its world and system; setup_s
// is their median, and the extra worlds host the layer-stepped replays.
const setups = 3

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	nproc    int

	rep *report
	reg *obs.Registry // wall-enabled; traced runs only
	led *ledger       // traced runs only
}

// worldConfig is the world every workload runs on: the paper-scale world
// with the canonical seed and decision provenance on (the looking glass
// and the served /explain need it).
func worldConfig() worldgen.Config {
	return worldgen.Config{Seed: worldgen.DefaultSeed, Provenance: true}
}

// buildWorld runs worldgen.New under a ledger span.
func (r *run) buildWorld() (*worldgen.World, error) {
	sp := r.led.start("worldgen", "new")
	w, err := worldgen.New(worldConfig())
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	return w, nil
}

// timeSetups runs build setups times, each after a full GC so one set-up's
// garbage does not tax the next, and reports the median CPU time of a
// set-up as setup_s (CPU rather than wall time for the reason cpuTime
// gives; the wall times are noted). build gets the set-up index.
func (r *run) timeSetups(build func(i int) error) error {
	var cpus, walls []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		c0, t0 := cpuTime(), time.Now()
		if err := build(i); err != nil {
			return err
		}
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	s := medianOf(cpus)
	r.rep.set("setup_s", s)
	r.rep.notef("setup_s = %.4f s CPU (median of %d set-ups: %.4f; wall %.4f)", s, len(cpus), cpus, walls)
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}
