package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anysim/internal/dynamics"
)

// queryPath renders one scheduled dashboard query. since is the /diff base
// tick and series the seeded /timeseries series (empty for the index).
func queryPath(kind, arg string, since int64) string {
	switch kind {
	case "explain":
		return "/explain?group=" + url.QueryEscape(arg)
	case "diff":
		return fmt.Sprintf("/diff?since=%d", since)
	case "timeseries":
		if arg == "" {
			return "/timeseries"
		}
		return "/timeseries?series=" + url.QueryEscape(arg)
	}
	return "/" + kind
}

// sleepUntil waits for the wall clock to reach t (returns at once if late).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// serveRead is the open-loop dashboard workload: one connection sends a
// seeded query mix at a fixed rate while single events trickle in on a
// second connection at their own fixed rate.
func (r *run) serveRead() error {
	srv, w, err := r.serveSetup()
	if err != nil {
		return err
	}
	// The trickle is flash crowds (seeded areas and factors, each ended 5
	// ticks later): every event publishes a fresh state, and so a fresh
	// capture on the query path, at an even cost. Routing faults here made
	// the run's cost depend on which few faults the seed drew (an IXP
	// outage allocates hundreds of MB, a flash crowd almost nothing).
	nEvents := int(r.seconds / eventPeriod)
	sc, err := dynamics.Generate(dynamics.GenConfig{Seed: r.seed, Faults: nEvents/2 + 8, PCrowd: 1}, w.Topo, srv.Dep())
	if err != nil {
		return err
	}
	events := sc.Events
	groups := make([]string, 0, len(srv.Model().Groups))
	for _, g := range srv.Model().Groups {
		groups = append(groups, g.Key)
	}
	nQueries := int(r.seconds / queryPeriod)
	kinds, args := querySchedule(r.seed, nQueries, groups, srv.Series().Names())
	r.rep.notef("inputs seed=%d digest=%s (%d queries, %d events)", r.seed,
		digestOf(strings.Join(kinds, ","), strings.Join(args, ","), eventBody(events[:nEvents])), nQueries, nEvents)
	r.rep.notef("load open loop: a query every %v on 1 connection, a single event every %v on 1 connection, loopback",
		queryPeriod, eventPeriod)
	base, stopServer, err := loopback(srv.Handler())
	if err != nil {
		return err
	}
	defer stopServer()
	qc, ec := newClient(), newClient()
	defer qc.CloseIdleConnections()
	defer ec.CloseIdleConnections()

	var since atomic.Int64 // /diff base: the tick before the latest event
	lat := make([]float64, nQueries)
	late := make([]float64, nQueries)
	qfail := make([]bool, nQueries)
	var lastDone time.Time
	posts := make([]float64, 0, nEvents)
	var posted []burst
	var efail []string

	ph := r.startPhase()
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range kinds {
			due := t0.Add(time.Duration(i) * queryPeriod)
			sleepUntil(due)
			sent := time.Now()
			code, _, err := do(qc, "GET", base+queryPath(kinds[i], args[i], since.Load()), "")
			done := time.Now()
			lat[i] = float64(done.Sub(due).Nanoseconds()) / 1e6
			late[i] = float64(sent.Sub(due).Nanoseconds()) / 1e6
			qfail[i] = !ok(code, err)
			lastDone = done
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < nEvents; k++ {
			sleepUntil(t0.Add(eventPeriod/2 + time.Duration(k)*eventPeriod))
			body := eventBody(events[k : k+1])
			at := time.Now()
			applied, code, err := postEvents(ec, base, body)
			posts = append(posts, float64(time.Since(at).Nanoseconds())/1e6)
			if !ok(code, err) || len(applied) != 1 {
				efail = append(efail, fmt.Sprintf("POST /events %q: status %d: %v", events[k], code, err))
				continue
			}
			posted = append(posted, burst{body: body})
			if k > 0 {
				since.Store(int64(events[k-1].At))
			}
		}
	}()
	wg.Wait()
	elapsed := lastDone.Sub(t0)
	r.endPhase(ph, nQueries, "query")
	if r.trace {
		r.rep.set("prog.serve.http_us", progServeUs(r.reg, serveEndpoints...))
	}

	var failed int64
	for i, f := range qfail {
		if f {
			failed++
			if failed <= 5 {
				r.rep.notef("FAIL GET %s", queryPath(kinds[i], args[i], 0))
			}
		}
	}
	r.rep.op(int64(nQueries), failed)
	r.rep.op(int64(nEvents), int64(len(efail)))
	for _, e := range efail {
		r.rep.notef("FAIL %s", e)
	}
	q, gl, ep := summarize(lat), summarize(late), summarize(posts)
	r.rep.notef("serve-read: %d queries over %.3fs, query_p50_ms=%.3f query_%s_ms=%.3f (n=%d, timed from due)", nQueries, elapsed.Seconds(), q.P50, q.label(), q.tailOrMax(), q.N)
	r.rep.notef("serve-read: event_post_p50_ms=%.3f (n=%d), generator late p50=%.3fms %s=%.3fms", ep.P50, ep.N, gl.P50, gl.label(), gl.tailOrMax())
	r.queryBreakdown(kinds, lat)

	served, err := serverDigests(qc, base)
	if err != nil {
		return err
	}
	if r.trace {
		r.rep.set("server.event_post_ms", ep.P50)
		r.rep.set("bench.gen_late_p99_ms", gl.tailOrMax())
		h := srv.Handler()
		group := groups[0]
		for i, k := range kinds {
			if k == "explain" {
				group = args[i]
				break
			}
		}
		plain := r.handlerLoop(h, group, since.Load(), nil)
		traced := r.handlerLoop(h, group, since.Load(), r.led)
		r.traceOverhead(plain, traced)
		for _, e := range serveEndpoints {
			r.rep.set("server.handler_us."+e, r.led.medianUs("server.handler."+e))
		}
		r.httpRTT(qc, base, h)
		r.applyDirect(srv, events[nEvents:nEvents+8])
	}
	stopServer()

	r.rep.notef("digest served %s", served)
	if _, err := r.serveReplay(posted, served, nil); err != nil {
		return err
	}
	if r.trace {
		_, err = r.serveReplay(posted, served, r.led)
	}
	return err
}

// queryBreakdown notes the median and worst latency per query kind.
func (r *run) queryBreakdown(kinds []string, lat []float64) {
	by := map[string][]float64{}
	for i, k := range kinds {
		by[k] = append(by[k], lat[i])
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		d := summarize(by[k])
		parts = append(parts, fmt.Sprintf("%s n=%d p50=%.2f max=%.1f", k, d.N, d.P50, d.Max))
	}
	r.rep.notef("serve-read per kind (ms): %s", strings.Join(parts, "; "))
}

// handlerRounds is how many times the handler loop calls each endpoint.
const handlerRounds = 30

// handlerLoop serves every dashboard endpoint straight into a recorder
// (no connection) on the final, memoized state — so /catchment and /diff
// time their encoding, not a capture — and returns the loop's wall time.
// With a ledger each call is a span named server.handler.<endpoint>.
func (r *run) handlerLoop(h http.Handler, group string, since int64, l *ledger) time.Duration {
	paths := map[string]string{}
	for _, e := range serveEndpoints {
		arg := ""
		if e == "explain" {
			arg = group
		}
		paths[e] = queryPath(e, arg, since)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", paths[e], nil)) // memoize
	}
	t0 := time.Now()
	for i := 0; i < handlerRounds; i++ {
		for _, e := range serveEndpoints {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", paths[e], nil)
			sp := l.start("server", "handler."+e)
			h.ServeHTTP(rec, req)
			sp.end()
			if rec.Code != http.StatusOK {
				r.rep.fail("handler %s: status %d", paths[e], rec.Code)
				continue
			}
			r.rep.op(1, 0)
		}
	}
	return time.Since(t0)
}
