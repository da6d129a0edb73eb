package obs

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareCountsAndTimes(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	mux := http.NewServeMux()
	mux.Handle("GET /ok", hm.Wrap("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})))
	mux.Handle("GET /missing", hm.Wrap("GET /missing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if got := hm.requests.With("GET /ok", "2xx").Value(); got != 3 {
		t.Fatalf("2xx count = %v, want 3", got)
	}
	if got := hm.requests.With("GET /missing", "4xx").Value(); got != 1 {
		t.Fatalf("4xx count = %v, want 1", got)
	}
	if got := hm.duration.With("GET /ok").Count(); got != 3 {
		t.Fatalf("duration observations = %v, want 3", got)
	}
	if got := hm.inFlight.Value(); got != 0 {
		t.Fatalf("in-flight after requests = %v, want 0", got)
	}
}

func TestMiddlewareAbortLeavesInFlight(t *testing.T) {
	hm := NewHTTPMetrics(NewRegistry(), nil)
	// A stream aborted mid-body, and a handler that panics before
	// writing anything.
	streamed := hm.Wrap("GET /stream", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("partial"))
		panic(http.ErrAbortHandler)
	}))
	silent := hm.Wrap("GET /silent", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	for _, h := range []http.Handler{streamed, silent} {
		func() {
			defer func() {
				if r := recover(); r != http.ErrAbortHandler {
					t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
				}
			}()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		}()
	}
	if got := hm.inFlight.Value(); got != 0 {
		t.Fatalf("in-flight after aborted requests = %v, want 0", got)
	}
	for _, c := range []struct{ route, class string }{{"GET /stream", "2xx"}, {"GET /silent", "5xx"}} {
		if got := hm.requests.With(c.route, c.class).Value(); got != 1 {
			t.Errorf("%s: %s count after an aborted request = %v, want 1", c.route, c.class, got)
		}
		if got := hm.duration.With(c.route).Count(); got != 1 {
			t.Errorf("%s: duration observations after an aborted request = %v, want 1", c.route, got)
		}
	}
}

func TestMiddlewareRequestID(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	var seen string
	h := hm.Wrap("GET /", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// A client-supplied ID is propagated to the handler context and
	// echoed in the response.
	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set(RequestIDHeader, "client-id-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if seen != "client-id-7" {
		t.Fatalf("handler saw request ID %q, want client-id-7", seen)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "client-id-7" {
		t.Fatalf("echoed request ID = %q", got)
	}

	// Absent IDs are minted and still echoed.
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if minted := resp.Header.Get(RequestIDHeader); len(minted) != 16 || seen != minted {
		t.Fatalf("minted ID %q (handler saw %q)", minted, seen)
	}
}

// TestMiddlewareIgnoresTraceHeaders: trace identity travels in the
// lease body, not on headers. A request from an older worker that still
// sends X-Trace-ID/X-Parent-Span is served like any other: its request
// ID is minted, and the access line carries no trace_id.
func TestMiddlewareIgnoresTraceHeaders(t *testing.T) {
	var logs bytes.Buffer
	hm := NewHTTPMetrics(NewRegistry(), NewLogger(&logs, slog.LevelDebug))
	srv := httptest.NewServer(hm.Wrap("POST /lease", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})))
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/lease", nil)
	req.Header.Set("X-Trace-ID", "trace-77")
	req.Header.Set("X-Parent-Span", "span-88")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	id := resp.Header.Get(RequestIDHeader)
	if len(id) != 16 || id == "trace-77" {
		t.Fatalf("request ID %q, want a minted one", id)
	}
	line := logs.String()
	if !strings.Contains(line, "request_id="+id) || !strings.Contains(line, "path=/lease") {
		t.Fatalf("access line lacks the request ID or path:\n%s", line)
	}
	if strings.Contains(line, "trace") || strings.Contains(line, "span-88") {
		t.Fatalf("access line carries trace identity from headers:\n%s", line)
	}
}

func TestMiddlewarePreservesFlusher(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	flushed := false
	h := hm.Wrap("GET /stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapped writer lost http.Flusher")
			return
		}
		io.WriteString(w, "line\n")
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stream", nil))
	if !flushed {
		t.Fatal("handler never flushed")
	}
	if !rec.Flushed {
		t.Fatal("flush did not reach the underlying writer")
	}
	if !strings.Contains(rec.Body.String(), "line") {
		t.Fatal("body lost")
	}
}
