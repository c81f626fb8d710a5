package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEventsBodyLimit: a POST /events body over maxEventsBody is answered
// 413. The complete events before the cut stay applied and are listed; the
// event line the limit cuts in half is dropped, not decoded as a
// (malformed or different) event.
func TestEventsBodyLimit(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()
	site := busiestSite(t, s)

	const cutAt = 8 // bytes of the last event line inside the limit
	body := padTo("at 1 site-down "+site+"\n", maxEventsBody-cutAt) + "at 2 site-up " + site + "\n"
	if strings.LastIndex(body, "at 2") != maxEventsBody-cutAt {
		t.Fatalf("body layout: cut line at %d", strings.LastIndex(body, "at 2"))
	}

	rec := do(t, h, "POST", "/events", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %.200s", rec.Code, rec.Body)
	}
	var apiErr apiError
	decode(t, rec, &apiErr)
	if len(apiErr.Applied) != 1 || apiErr.Applied[0].Tick != 1 {
		t.Fatalf("applied before the cut = %+v, want the tick-1 withdrawal only", apiErr.Applied)
	}
	var st statusView
	decode(t, do(t, h, "GET", "/status", ""), &st)
	if st.Events != 1 || st.Tick != 1 {
		t.Fatalf("status after the cut = %+v, want 1 event at tick 1", st)
	}

	// A body at the limit is accepted.
	ok := padTo("at 2 site-up "+site+"\n", maxEventsBody)
	if rec := do(t, h, "POST", "/events", ok); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes = %d, want 200: %.200s", len(ok), rec.Code, rec.Body)
	}
}

// padTo appends comment lines to head until it is exactly n bytes long.
func padTo(head string, n int) string {
	var b strings.Builder
	b.WriteString(head)
	for b.Len() < n-2048 {
		b.WriteString("# " + strings.Repeat("x", 1000) + "\n")
	}
	for b.Len() < n {
		k := min(n-b.Len(), 1000)
		b.WriteString(strings.Repeat("#", k-1) + "\n")
	}
	return b.String()
}

// TestWatchSubscriberCap: with maxWatchers subscribers attached, GET /watch
// is answered 503 and registers nothing; once a slot frees up, the next
// subscriber gets its stream.
func TestWatchSubscriberCap(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()
	var held []chan []byte
	for len(held) < maxWatchers {
		ch, ok := s.watch.subscribe()
		if !ok {
			t.Fatalf("subscribe refused at %d of %d", len(held), maxWatchers)
		}
		held = append(held, ch)
	}
	if rec := do(t, h, "GET", "/watch", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /watch over the cap = %d, want 503", rec.Code)
	}
	if n := s.watch.active(); n != maxWatchers {
		t.Fatalf("refused watcher changed the count: %d", n)
	}

	s.watch.unsubscribe(held[0])
	// A request whose client has already gone: the handler answers with
	// the hello frame, sees the context done, and releases its slot.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/watch", nil).WithContext(ctx))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"kind":"hello"`) {
		t.Fatalf("GET /watch under the cap = %d: %.200s", rec.Code, rec.Body)
	}
	if n := s.watch.active(); n != maxWatchers-1 {
		t.Fatalf("watchers after the stream ended = %d, want %d", n, maxWatchers-1)
	}
}
