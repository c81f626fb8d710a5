package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// composition is the layer-stepped replay: the public calls the server's
// ingest/publish step and dynamics.Runner.Run make, called one at a time
// from here on a world of its own, each wrapped in a ledger span when the
// run is traced. Its final outputs must equal the program's (incremental
// equals full, byte-identical across reruns), and its spans are the
// per-layer ledger.
type composition struct {
	w      *worldgen.World
	dep    *cdn.Deployment
	model  *traffic.Model
	eval   *traffic.Evaluator
	runner *dynamics.Runner
	db     *ts.DB
	l      *ledger

	tick int64
	seq  int64 // published states, as the server counts them
	cur  *bgp.Engine
	load *traffic.LoadReport
	snap dynamics.Snapshot // scenario mode: catchments before the next step
	capt *glass.CatchmentSet
}

// newComposition assembles the replay on w the way server.New (and the
// scenario wiring of `anysim scenario`) does: a demand model seeded by the
// world, capacities derived from baseline routing, default SLO rules.
func newComposition(w *worldgen.World, dep *cdn.Deployment, l *ledger) *composition {
	c := &composition{w: w, dep: dep, l: l}
	c.model = traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	c.eval = traffic.NewEvaluator(w.Engine, dep, c.model, traffic.CapacityConfig{})
	c.runner = dynamics.NewRunner(w.Engine, dep)
	c.db = ts.New(ts.Config{})
	return c
}

// newReplay builds a fresh world, untimed, for a layer-stepped replay of
// the run's inputs. In a traced run the world's engine and the replay's
// evaluator report into the wall-enabled registry, so the program's own
// histograms sit beside the ledger's timings.
func (r *run) newReplay(l *ledger) (*composition, error) {
	runtime.GC()
	debug.FreeOSMemory()
	w, err := worldgen.New(worldConfig())
	if err != nil {
		return nil, fmt.Errorf("build replay world: %w", err)
	}
	c := newComposition(w, w.Imperva.IM6, l)
	if l != nil {
		w.Engine.Instrument(r.reg, nil)
		c.eval.Instrument(r.reg)
	}
	return c, nil
}

// routing reports whether an event reconverges routing (flash crowds only
// reshape demand).
func routing(ev dynamics.Event) bool {
	return ev.Kind != dynamics.FlashBegin && ev.Kind != dynamics.FlashEnd
}

// apply runs Runner.Apply under a span named for the layer doing the work
// and records the engine's reconvergence counts and allocation.
func (c *composition) apply(ev dynamics.Event) (bgp.ReconvergeStats, error) {
	if !routing(ev) {
		sp := c.l.start("dynamics", "flash")
		err := c.runner.Apply(ev)
		sp.end()
		return c.w.Engine.LastReconvergeStats(), err
	}
	var a0 uint64
	if c.l != nil {
		a0 = allocBytes()
	}
	sp := c.l.start("bgp", "reconverge")
	err := c.runner.Apply(ev)
	sp.end()
	st := c.w.Engine.LastReconvergeStats()
	if c.l != nil {
		c.l.add("bgp.alloc_kb", float64(allocBytes()-a0)/1024)
		c.l.add("bgp.dirty_ases", float64(st.Dirty))
		c.l.add("bgp.passes", float64(st.Passes))
		full := 0.0
		if st.Full {
			full = 1
		}
		c.l.add("bgp.full", full)
	}
	return st, err
}

// evaluate is the publish chain: the tick's demand matrix with the active
// flash crowds folded in (sorted by area, as the server and runner do), an
// engine fork, the load report on that fork, its ts sample, and the SLO
// evaluation.
func (c *composition) evaluate() {
	sp := c.l.start("traffic", "matrix")
	mat := c.model.Matrix(int(c.tick % int64(c.model.Buckets())))
	flash := c.runner.ActiveFlash()
	areas := make([]geo.Area, 0, len(flash))
	for a := range flash {
		areas = append(areas, a)
	}
	sort.Slice(areas, func(i, j int) bool { return areas[i] < areas[j] })
	for _, a := range areas {
		mat = c.model.FlashCrowd(mat, a, flash[a])
	}
	sp.end()

	sp = c.l.start("bgp", "fork")
	c.cur = c.w.Engine.Fork()
	sp.end()

	sp = c.l.start("traffic", "evaluate")
	c.load = c.eval.EvaluateOn(c.cur, mat)
	sp.end()

	sp = c.l.start("ts", "sample_load")
	c.db.SampleLoad(c.tick, c.model, c.load, c.eval.Config().SoftUtil)
	sp.end()

	sp = c.l.start("ts", "eval")
	c.db.Eval(c.tick)
	sp.end()
	c.seq++
}

// serveStart publishes the initial state, as server.New does.
func (c *composition) serveStart() { c.evaluate() }

// serveApply is Server.Apply's work for one event: the clock moves forward
// to the event, routing reconverges, the reconvergence counts are sampled
// (zero for demand-only events), and a new state is published.
func (c *composition) serveApply(ev dynamics.Event) error {
	sp := c.l.start("server", "apply")
	defer sp.end()
	if int64(ev.At) > c.tick {
		c.tick = int64(ev.At)
	}
	st, err := c.apply(ev)
	if err != nil {
		return err
	}
	if !routing(ev) {
		st = bgp.ReconvergeStats{}
	}
	tsp := c.l.start("ts", "sample_counts")
	c.db.SampleReconverge(c.tick, st.Dirty, st.Passes)
	tsp.end()
	c.evaluate()
	return nil
}

// serveAdvance is Server.AdvanceTo's work: move the clock, re-publish.
func (c *composition) serveAdvance(tick int64) {
	sp := c.l.start("server", "advance")
	c.tick = tick
	c.evaluate()
	sp.end()
}

// scenarioStep is one step of Runner.Run with Series, Eval and Model set:
// apply, snapshot, churn diff against the previous snapshot, the step's
// reconvergence and churn samples, the load plane, the SLO evaluation. With
// explain on it also captures and diffs the catchment, as ExplainMoves
// does, and returns the classified moves.
func (c *composition) scenarioStep(ev dynamics.Event, explain bool) (*glass.DiffReport, error) {
	sp := c.l.start("dynamics", "step")
	defer sp.end()
	if c.snap == nil {
		c.snap = c.snapshot()
	}
	c.tick = int64(ev.At)
	st, err := c.apply(ev)
	if err != nil {
		return nil, err
	}
	post := c.snapshot()
	dsp := c.l.start("dynamics", "churn_diff")
	churn := dynamics.Diff(c.snap, post)
	dsp.end()
	c.snap = post
	var moves *glass.DiffReport
	if explain {
		if moves, err = c.explain(); err != nil {
			return nil, err
		}
	}
	tsp := c.l.start("ts", "sample_counts")
	c.db.SampleReconverge(c.tick, st.Dirty, st.Passes)
	c.db.SampleChurn(c.tick, churn.Moved, churn.Lost)
	tsp.end()
	c.evaluate()
	return moves, nil
}

func (c *composition) snapshot() dynamics.Snapshot {
	sp := c.l.start("dynamics", "snapshot")
	defer sp.end()
	return c.runner.Snapshot()
}

// capture runs glass.Capture on the live engine.
func (c *composition) capture() (glass.CatchmentSet, error) {
	sp := c.l.start("glass", "capture")
	defer sp.end()
	return glass.Capture(c.w.Engine, c.dep, c.w.Measurer, c.w.Platform.Retained())
}

// explain captures the catchment and classifies its moves since the last
// capture (the first call only sets the baseline).
func (c *composition) explain() (*glass.DiffReport, error) {
	after, err := c.capture()
	if err != nil {
		return nil, err
	}
	defer func() { c.capt = &after }()
	if c.capt == nil {
		return nil, nil
	}
	sp := c.l.start("glass", "diff")
	rep, err := glass.Diff(*c.capt, after)
	sp.end()
	if err != nil {
		return nil, err
	}
	c.l.add("glass.moves", float64(len(rep.Moves)))
	return &rep, nil
}

// The digests below reduce each output body to a canonical form: JSON
// decoded and re-encoded, so key order and whitespace do not matter but
// every value does.

// canonical returns the digest of a JSON body's canonical form.
func canonical(body []byte) (string, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("decode body: %w", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestOf(string(b)), nil
}

// canonicalValue digests a Go value through the same canonical form.
func canonicalValue(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return canonical(b)
}

// loadView mirrors the fields of the GET /load body that the replay can
// recompute. Decoding the server's body into it ignores any field added
// later; a field that changes value or disappears breaks the match.
type loadView struct {
	Seq            int64              `json:"seq"`
	Tick           int64              `json:"tick"`
	Bucket         int                `json:"bucket"`
	MaxUtilization float64            `json:"max_utilization"`
	Unserved       float64            `json:"unserved"`
	Flash          map[string]float64 `json:"flash"`
	Sites          []siteView         `json:"sites"`
}

type siteView struct {
	Site        string  `json:"site"`
	City        string  `json:"city"`
	Tier        string  `json:"tier"`
	Capacity    float64 `json:"capacity"`
	Demand      float64 `json:"demand"`
	Utilization float64 `json:"utilization"`
	Groups      int     `json:"groups"`
	Overloaded  bool    `json:"overloaded"`
}

// loadDigest digests the /load body the server would answer for this
// composition's current state.
func (c *composition) loadDigest() (string, error) {
	v := loadView{
		Seq:            c.seq,
		Tick:           c.tick,
		Bucket:         c.load.Bucket,
		MaxUtilization: c.load.MaxUtilization(),
		Unserved:       c.load.Unserved,
	}
	if flash := c.runner.ActiveFlash(); len(flash) > 0 {
		v.Flash = map[string]float64{}
		for a, f := range flash {
			v.Flash[a.String()] = f
		}
	}
	for _, sl := range c.load.Sites {
		v.Sites = append(v.Sites, siteView{
			Site: sl.Site, City: sl.City, Tier: sl.Tier.String(), Capacity: sl.Capacity,
			Demand: sl.Demand, Utilization: sl.Utilization(), Groups: sl.Groups, Overloaded: sl.Overloaded(),
		})
	}
	return canonicalValue(v)
}

// loadBodyDigest digests a /load body through the same view.
func loadBodyDigest(body []byte) (string, error) {
	var v loadView
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("decode /load: %w", err)
	}
	return canonicalValue(v)
}

// catchmentDigest digests the /catchment body for the current state.
func (c *composition) catchmentDigest() (string, error) {
	set, err := c.capture()
	if err != nil {
		return "", err
	}
	body, err := glass.JSON(set)
	if err != nil {
		return "", err
	}
	return canonical([]byte(body))
}

// seriesIndex and seriesPoints mirror the /timeseries bodies.
type seriesIndex struct {
	Schema   int      `json:"schema"`
	Capacity int      `json:"capacity"`
	Series   []string `json:"series"`
}

type seriesPoints struct {
	Series string  `json:"series"`
	Points [][]any `json:"points"`
}

// timeseriesDigest digests the /timeseries index and every series' points
// as recorded by this composition.
func (c *composition) timeseriesDigest() (string, error) {
	parts := []any{seriesIndex{Schema: ts.SchemaVersion, Capacity: c.db.Capacity(), Series: c.db.Names()}}
	for _, name := range c.db.Names() {
		pts, _ := c.db.Query(name, 0, 1<<62, 0)
		sp := seriesPoints{Series: name, Points: [][]any{}}
		for _, p := range pts {
			sp.Points = append(sp.Points, []any{p.Tick, jsonFloat(p.V)})
		}
		parts = append(parts, sp)
	}
	return canonicalValue(parts)
}

// jsonFloat follows the obs encoding of non-finite floats (as strings).
func jsonFloat(v float64) any {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return v
}

// digests are one state's output digests.
type digests struct {
	Load, Catchment, Timeseries string
}

func (d digests) String() string {
	return fmt.Sprintf("load=%s catchment=%s timeseries=%s", d.Load, d.Catchment, d.Timeseries)
}

// serveDigests computes the replay's digests of the three served bodies.
func (c *composition) serveDigests() (digests, error) {
	var d digests
	var err error
	if d.Load, err = c.loadDigest(); err != nil {
		return d, err
	}
	if d.Catchment, err = c.catchmentDigest(); err != nil {
		return d, err
	}
	d.Timeseries, err = c.timeseriesDigest()
	return d, err
}
