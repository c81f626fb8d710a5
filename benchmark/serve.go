package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anysim/internal/dynamics"
	"anysim/internal/obs"
	"anysim/internal/server"
	"anysim/internal/worldgen"
)

// history bounds the server's retained state ring. Every retained state
// pins an engine fork (tens of MB on the paper world after a link event),
// so the default of 128 would hold gigabytes over a run; 16 still covers
// every /diff base the serve-read dashboard asks for.
const history = 16

// Rates of the serve-read open loop: one dashboard query every 10ms on one
// connection, one single-event POST every 2s on a second connection. Each
// event publishes a fresh state whose first /catchment or /diff pays a full
// glass.Capture (~200ms) and stalls the query connection, so the query tail
// measures those captures. At one event a second, the stalls and their
// queues reached half the queries in slow phases of a 2-vCPU box, and the
// median flipped between 2ms and 20ms from run to run.
const (
	queryPeriod = 10 * time.Millisecond
	eventPeriod = 2 * time.Second
)

// serverConfig fronts the IM6 deployment, as `anysim serve -dep im6` does.
func serverConfig(w *worldgen.World) server.Config {
	return server.Config{World: w, Dep: w.Imperva.IM6, History: history}
}

// serveSetup builds the world and server setups times and returns the last
// server, the one measured. In a traced run its world carries the
// wall-enabled registry, so the program's own histograms fill in.
func (r *run) serveSetup() (*server.Server, *worldgen.World, error) {
	var srv *server.Server
	var world *worldgen.World
	err := r.timeSetups(func(i int) error {
		srv, world = nil, nil
		w, err := r.buildWorld()
		if err != nil {
			return err
		}
		if i == setups-1 && r.trace {
			w.Config.Metrics = r.reg
			w.Engine.Instrument(r.reg, nil)
		}
		sp := r.led.start("server", "new")
		s, err := server.New(serverConfig(w))
		sp.end()
		if err != nil {
			return fmt.Errorf("server.New: %w", err)
		}
		srv, world = s, w
		return nil
	})
	return srv, world, err
}

// loopback serves h on a loopback listener and returns its base URL and a
// stop function that closes every connection and waits for Serve to end.
func loopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	// stop is idempotent, and drops the server so a deferred stop does not
	// keep the handler's state reachable.
	stop := func() {
		if hs == nil {
			return
		}
		hs.Close()
		<-done
		hs = nil
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// applyResult is the part of a POST /events answer the benchmark reads.
type applyResult struct {
	Seq  int64 `json:"seq"`
	Tick int64 `json:"tick"`
}

// do sends one request and returns the status code and body; a transport
// error is reported as status 0.
func do(c *http.Client, method, target, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ok reports whether a response counts as a success.
func ok(code int, err error) bool { return err == nil && code >= 200 && code < 300 }

// check counts one HTTP operation and reports whether it succeeded: a
// transport error or a non-2xx answer is a failure.
func (r *run) check(what string, code int, err error) bool {
	if ok(code, err) {
		r.rep.op(1, 0)
		return true
	}
	r.rep.fail("%s: status %d: %v", what, code, err)
	return false
}

// postEvents posts an event body and returns what the server applied.
func postEvents(c *http.Client, base, body string) ([]applyResult, int, error) {
	code, b, err := do(c, "POST", base+"/events", body)
	if !ok(code, err) {
		return nil, code, err
	}
	var v struct {
		Applied []applyResult `json:"applied"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, code, fmt.Errorf("decode /events answer: %w", err)
	}
	return v.Applied, code, nil
}

// frameLog records /watch state frames in arrival order and counts seq
// gaps: every ingest or advance publishes the next seq, so a state frame
// whose seq skips ahead means frames were dropped. Alert frames repeat the
// seq of the state they follow and are not state frames.
type frameLog struct {
	mu     sync.Mutex
	seqs   []int64
	at     []time.Time
	gaps   int64
	last   atomic.Int64
	frames atomic.Int64
}

func (f *frameLog) observe(kind string, seq int64, at time.Time) {
	if kind == "alert" {
		return
	}
	f.mu.Lock()
	if n := len(f.seqs); n > 0 && seq > f.seqs[n-1]+1 {
		f.gaps += seq - f.seqs[n-1] - 1
	}
	f.seqs = append(f.seqs, seq)
	f.at = append(f.at, at)
	f.mu.Unlock()
	f.frames.Add(1)
	f.last.Store(seq)
}

// read consumes an SSE stream until it ends.
func (f *frameLog) read(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		at := time.Now()
		var v struct {
			Kind string `json:"kind"`
			Seq  int64  `json:"seq"`
		}
		if err := json.Unmarshal(line[len("data: "):], &v); err != nil {
			return fmt.Errorf("decode /watch frame: %w", err)
		}
		f.observe(v.Kind, v.Seq, at)
	}
	return sc.Err()
}

// countWatch counts the state frames a /watch client received after its
// hello and fails every frame the stream skipped.
func (r *run) countWatch(f *frameLog) (frames, gaps int64) {
	f.mu.Lock()
	gaps = f.gaps
	f.mu.Unlock()
	frames = f.frames.Load() - 1
	r.rep.op(frames, gaps)
	if gaps > 0 {
		r.rep.notef("FAIL /watch skipped %d frames", gaps)
	}
	return frames, gaps
}

// firstAtOrAfter returns the arrival time of the first state frame whose
// seq is >= seq.
func (f *frameLog) firstAtOrAfter(seq int64) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := sort.Search(len(f.seqs), func(i int) bool { return f.seqs[i] >= seq })
	if i == len(f.seqs) {
		return time.Time{}, false
	}
	return f.at[i], true
}

// watcher is one attached /watch SSE client on its own connection.
type watcher struct {
	log    frameLog
	cancel context.CancelFunc
	done   chan error
}

// startWatch attaches a /watch client and waits for its hello frame.
func startWatch(base string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := newClient().Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("GET /watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /watch: status %d", resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		w.done <- w.log.read(resp.Body)
	}()
	if !w.waitFrames(1, 10*time.Second) {
		w.stop()
		return nil, fmt.Errorf("GET /watch: no hello frame")
	}
	return w, nil
}

// waitFrames waits until n state frames arrived.
func (w *watcher) waitFrames(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for w.log.frames.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// waitSeq waits until a state frame with seq >= seq arrived.
func (w *watcher) waitSeq(seq int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for w.log.last.Load() < seq {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// stop detaches the client and waits for its reader to end.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// serverDigests fetches the served /load, /catchment and /timeseries
// bodies and digests them.
func serverDigests(c *http.Client, base string) (digests, error) {
	var d digests
	get := func(path string) ([]byte, error) {
		code, b, err := do(c, "GET", base+path, "")
		if !ok(code, err) {
			return nil, fmt.Errorf("GET %s: status %d: %v", path, code, err)
		}
		return b, nil
	}
	b, err := get("/load")
	if err != nil {
		return d, err
	}
	if d.Load, err = loadBodyDigest(b); err != nil {
		return d, err
	}
	if b, err = get("/catchment"); err != nil {
		return d, err
	}
	if d.Catchment, err = canonical(b); err != nil {
		return d, err
	}
	if b, err = get("/timeseries"); err != nil {
		return d, err
	}
	var idx seriesIndex
	if err := json.Unmarshal(b, &idx); err != nil {
		return d, fmt.Errorf("decode /timeseries: %w", err)
	}
	parts := []json.RawMessage{b}
	for _, name := range idx.Series {
		if b, err = get("/timeseries?series=" + url.QueryEscape(name)); err != nil {
			return d, err
		}
		parts = append(parts, b)
	}
	d.Timeseries, err = canonicalValue(parts)
	return d, err
}

// compareDigests counts one check per body and fails each that differs.
func (r *run) compareDigests(label string, got, want digests) {
	r.rep.notef("digest %s %s", label, got)
	for _, c := range []struct{ name, got, want string }{
		{"load", got.Load, want.Load},
		{"catchment", got.Catchment, want.Catchment},
		{"timeseries", got.Timeseries, want.Timeseries},
	} {
		if c.got != c.want {
			r.rep.fail("%s %s digest %s differs from the served body's %s", label, c.name, c.got, c.want)
			continue
		}
		r.rep.op(1, 0)
	}
}

// httpRTT measures loopback GET /healthz round trips minus the handler's
// own time (the same request served into a recorder).
func (r *run) httpRTT(c *http.Client, base string, h http.Handler) {
	const n = 200
	var rtt, handler []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		code, _, err := do(c, "GET", base+"/healthz", "")
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds()))
		r.check("GET /healthz", code, err)
		rec := httptest.NewRecorder()
		t0 = time.Now()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		handler = append(handler, float64(time.Since(t0).Nanoseconds()))
	}
	rt, hd := summarize(rtt), summarize(handler)
	r.rep.set("http.rtt_us", (rt.P50-hd.P50)/1e3)
	r.rep.notef("http /healthz loopback p50=%.1fus %s=%.1fus, handler p50=%.1fus (n=%d)", rt.P50/1e3, rt.label(), rt.tailOrMax()/1e3, hd.P50/1e3, n)
}

// applyDirect times Server.Apply in-process on the next events of the
// stream (after the digests were taken).
func (r *run) applyDirect(s *server.Server, evs []dynamics.Event) {
	for _, ev := range evs {
		sp := r.led.start("server", "apply_direct")
		_, err := s.Apply(ev)
		sp.end()
		if err != nil {
			r.rep.fail("Server.Apply %s: %v", ev, err)
			continue
		}
		r.rep.op(1, 0)
	}
	r.rep.set("server.apply_ms", r.led.medianMs("server.apply_direct"))
}

// burst is one POST /events body and the clock advance posted after it
// (0 for none).
type burst struct {
	body    string
	advance int64
}

// serveBurst is the closed-loop ingest workload: one client posts seeded
// fault bursts and advances the clock after each, while one /watch client
// stays attached.
func (r *run) serveBurst() error {
	srv, w, err := r.serveSetup()
	if err != nil {
		return err
	}
	events, err := faultStream(r.seed, 4000, w.Topo, srv.Dep())
	if err != nil {
		return err
	}
	r.rep.notef("inputs seed=%d digest=%s (fault stream of %d events, burst cycle %v)", r.seed,
		digestOf(eventBody(events), fmt.Sprint(burstCycle(r.seed, 0), burstCycle(r.seed, 1))), len(events), burstSizes)
	r.rep.notef("load closed loop, 1 ingest client + 1 /watch client, %d connections, loopback", 2)

	base, stopServer, err := loopback(srv.Handler())
	if err != nil {
		return err
	}
	defer stopServer()
	wt, err := startWatch(base)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()

	type sent struct {
		seq int64
		at  time.Time
	}
	var sents []sent
	var bursts []burst
	var lastSeq int64
	// post sends one burst and the clock advance after it; sent events and
	// the bodies the replay needs are recorded.
	post := func(body string, size int, measured bool) error {
		at := time.Now()
		applied, code, err := postEvents(c, base, body)
		if !ok(code, err) || len(applied) != size {
			r.rep.fail("POST /events (%d events): status %d, %d applied: %v", size, code, len(applied), err)
			return nil
		}
		r.rep.op(1, 0)
		if measured {
			for _, a := range applied {
				sents = append(sents, sent{a.Seq, at})
			}
		}
		adv := applied[len(applied)-1].Tick + 1
		code, b, err := do(c, "POST", fmt.Sprintf("%s/advance?to=%d", base, adv), "")
		if !r.check(fmt.Sprintf("POST /advance?to=%d", adv), code, err) {
			return nil
		}
		var av struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal(b, &av); err != nil {
			return fmt.Errorf("decode /advance answer: %w", err)
		}
		lastSeq = av.Seq
		bursts = append(bursts, burst{body, adv})
		return nil
	}
	if err := post(eventBody(events[:warmupBurst]), warmupBurst, false); err != nil {
		return err
	}
	pos, cycles := warmupBurst, 0
	ph := r.startPhase()
	t0 := time.Now()
	for ; time.Since(t0) < r.seconds; cycles++ {
		sizes := burstCycle(r.seed, cycles)
		if pos+sum(sizes) > len(events) {
			break
		}
		for _, size := range sizes {
			body := eventBody(events[pos : pos+size])
			pos += size
			if err := post(body, size, true); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(t0)
	r.endPhase(ph, len(sents), "event")
	if r.trace {
		r.rep.set("prog.serve.http_us", progServeUs(r.reg, "events", "advance"))
	}

	// Every ingest and advance publishes one state frame; a frame that never
	// arrives, or a seq the stream skipped, is a failed delivery.
	if !wt.waitSeq(lastSeq, 30*time.Second) {
		r.rep.fail("/watch never delivered seq %d", lastSeq)
	}
	frames, gaps := r.countWatch(&wt.log)
	var lags []float64
	for _, s := range sents {
		at, found := wt.log.firstAtOrAfter(s.seq)
		if !found {
			r.rep.fail("no /watch frame reached seq %d", s.seq)
			continue
		}
		lags = append(lags, float64(at.Sub(s.at).Nanoseconds())/1e6)
	}
	lag := summarize(lags)
	r.rep.notef("serve-burst: %d events in %d bursts (%d cycles, after a %d-event warm-up) over %.3fs = %.2f ingest_events_per_s", len(sents), len(bursts)-1, cycles, warmupBurst, elapsed.Seconds(), float64(len(sents))/elapsed.Seconds())
	r.rep.notef("serve-burst: watch_lag p50=%.1fms %s=%.1fms (n=%d), frames=%d gaps=%d", lag.P50, lag.label(), lag.tailOrMax(), lag.N, frames, gaps)

	served, err := serverDigests(c, base)
	if err != nil {
		return err
	}
	if r.trace {
		r.rep.set("server.watch_frames", float64(frames))
		r.rep.set("server.watch_gaps", float64(gaps))
		r.httpRTT(c, base, srv.Handler())
		r.applyDirect(srv, events[pos:pos+32])
	}
	wt.stop()
	stopServer()

	r.rep.notef("digest served %s", served)
	plain, err := r.serveReplay(bursts, served, nil)
	if err != nil {
		return err
	}
	if r.trace {
		traced, err := r.serveReplay(bursts, served, r.led)
		if err != nil {
			return err
		}
		r.traceOverhead(plain, traced)
	}
	return nil
}

// serveReplay replays the posted bodies, each followed by its clock
// advance when it had one, through the layer-stepped composition on a
// fresh world, and checks the replay's digests against the served ones.
// It returns the replay's wall time, digests left out. A traced replay
// also captures the catchment before and after, for glass.Diff.
func (r *run) serveReplay(posted []burst, served digests, l *ledger) (time.Duration, error) {
	comp, err := r.newReplay(l)
	if err != nil {
		return 0, err
	}
	comp.serveStart()
	if l != nil {
		if _, err := comp.explain(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for _, b := range posted {
		dec := dynamics.NewDecoder(strings.NewReader(b.body))
		for {
			sp := l.start("dynamics", "decode")
			ev, err := dec.Next()
			sp.end()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			if err := comp.serveApply(ev); err != nil {
				return 0, err
			}
		}
		if b.advance > 0 {
			comp.serveAdvance(b.advance)
		}
	}
	took := time.Since(t0)
	got, err := comp.serveDigests()
	if err != nil {
		return 0, err
	}
	label := "replay"
	if l != nil {
		label = "replay(traced)"
		if _, err := comp.explain(); err != nil {
			return 0, err
		}
	}
	r.compareDigests(label, got, served)
	return took, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// traceOverhead compares the same replay traced and untraced.
func (r *run) traceOverhead(plain, traced time.Duration) {
	pct := 100 * (traced.Seconds()/plain.Seconds() - 1)
	r.rep.set("bench.trace_overhead_pct", pct)
	r.rep.notef("trace overhead %.2f%% (untraced %.3fs, traced %.3fs, same work)", pct, plain.Seconds(), traced.Seconds())
}

// serveEndpoints are the GET endpoints the dashboard reads, by handler
// name (the program's serve.http.<name>.ns histograms use the same names).
var serveEndpoints = []string{"load", "status", "healthz", "timeseries", "alerts", "explain", "diff", "catchment"}

// progServeUs is the mean of the program's own per-endpoint wall
// histograms (serve.http.<name>.ns) over the named endpoints, in
// microseconds: the cross-check of the client-side timings.
func progServeUs(reg *obs.Registry, names ...string) float64 {
	var n, total int64
	for _, e := range names {
		h := reg.WallHistogram("serve.http."+e+".ns", obs.Pow2Bounds(34))
		n += h.Count()
		total += h.Sum()
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}
