package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anysim/internal/dynamics"
)

// readSSEData reads SSE frames until one data: line arrives (skipping
// event:/comment lines), with a watchdog so a broken stream fails the test
// instead of hanging it.
func readSSEData(t *testing.T, sc *bufio.Scanner) string {
	t.Helper()
	type line struct {
		s  string
		ok bool
	}
	ch := make(chan line, 1)
	go func() {
		for sc.Scan() {
			if s := sc.Text(); strings.HasPrefix(s, "data: ") {
				ch <- line{s: strings.TrimPrefix(s, "data: "), ok: true}
				return
			}
		}
		ch <- line{}
	}()
	select {
	case l := <-ch:
		if !l.ok {
			t.Fatalf("SSE stream ended early: %v", sc.Err())
		}
		return l.s
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for an SSE event")
		return ""
	}
}

// TestWatchSSE subscribes to /watch over a real connection, checks the
// hello frame, applies an event, and checks the pushed delta reflects it.
// Then it disconnects and checks the hub reclaims the subscriber slot.
func TestWatchSSE(t *testing.T) {
	s := testServer(t, 7)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /watch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	// A buffering reverse proxy would turn the live stream into a stale
	// one; the stream must opt out explicitly.
	if ab := resp.Header.Get("X-Accel-Buffering"); ab != "no" {
		t.Fatalf("X-Accel-Buffering = %q, want no", ab)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	hello := readSSEData(t, sc)
	if !strings.Contains(hello, `"kind":"hello"`) {
		t.Fatalf("first frame is not hello: %s", hello)
	}

	// The subscription must be registered before the event is applied, or
	// the broadcast has nobody to reach. The hello frame already proves the
	// handler ran subscribe(), but double-check the hub agrees.
	if n := s.watch.active(); n != 1 {
		t.Fatalf("watchers = %d, want 1", n)
	}

	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	delta := readSSEData(t, sc)
	for _, want := range []string{`"kind":"ingest"`, `"seq":2`, `"tick":1`} {
		if !strings.Contains(delta, want) {
			t.Errorf("delta frame missing %s: %s", want, delta)
		}
	}
	// Withdrawing the busiest site must move at least one probe group.
	if !strings.Contains(delta, `"moved_groups":`) {
		t.Errorf("delta frame has no moved_groups: %s", delta)
	}

	// Disconnect: the handler must notice the closed context and
	// unsubscribe, so later broadcasts have no one to deliver to.
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for s.watch.active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher not cleaned up after disconnect: %d active", s.watch.active())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchBroadcastDropsWhenFull checks the lossy contract: a subscriber
// that never drains loses events instead of blocking the ingest path.
func TestWatchBroadcastDropsWhenFull(t *testing.T) {
	var h watchHub
	ch, _ := h.subscribe()
	defer h.unsubscribe(ch)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			h.broadcast([]byte("x"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast blocked on a full subscriber")
	}
	if n := len(ch); n != cap(ch) {
		t.Fatalf("expected a full buffer (%d), got %d", cap(ch), n)
	}
}

// TestHealthz checks the identity-and-liveness body: world and policy
// hashes, the -1 ingest lag before any event, and a real lag after one.
func TestHealthz(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()

	var hv healthView
	rec := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", rec.Code, rec.Body)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	decode(t, rec, &hv)
	if hv.Status != "ok" || hv.Dep == "" {
		t.Fatalf("bad health body: %+v", hv)
	}
	if hv.World != s.w.Config.Hash() || hv.Policy != s.w.Config.PolicyHash() {
		t.Fatalf("health hashes do not match the world: %+v", hv)
	}
	if hv.IngestLagMs != -1 {
		t.Fatalf("IngestLagMs = %d before any ingest, want -1", hv.IngestLagMs)
	}

	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, h, "GET", "/healthz", "")
	decode(t, rec, &hv)
	if hv.IngestLagMs < 0 {
		t.Fatalf("IngestLagMs = %d after an ingest, want >= 0", hv.IngestLagMs)
	}
	if hv.Events != 1 || hv.Seq != 2 {
		t.Fatalf("health clock after one event: %+v", hv)
	}
}

// TestMetricsProm checks the Prometheus endpoint serves text exposition
// derived from the world's live registry.
func TestMetricsProm(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()

	rec := do(t, h, "GET", "/metrics.prom", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics.prom = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE anysim_serve_ingest_events_total counter",
		"anysim_worldgen_phase_cdns_last_ns",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestJSONResponsesNoStore checks every JSON endpoint tells caches to stay
// out of the way — a cached answer from a live twin is a stale twin.
func TestJSONResponsesNoStore(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()
	for _, target := range []string{"/status", "/load", "/metrics", "/catchment"} {
		rec := do(t, h, "GET", target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s: Cache-Control = %q, want no-store", target, cc)
		}
	}
}

// TestPerEndpointMetrics checks the instrumented wrapper records a status
// counter and latency histogram per endpoint once wall metrics are on.
func TestPerEndpointMetrics(t *testing.T) {
	s := testServer(t, 7)
	s.w.Config.Metrics.EnableWall(true)
	h := s.Handler()
	do(t, h, "GET", "/status", "")
	do(t, h, "GET", "/status", "")
	do(t, h, "GET", "/explain", "") // missing ?group= -> 400

	snap := string(s.w.Config.Metrics.AppendSnapshot(nil))
	for _, want := range []string{
		`"serve.http.status.status.200": 2`,
		`"serve.http.explain.status.400": 1`,
		`"serve.http.status.ns"`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s:\n%s", want, snap)
		}
	}
}
