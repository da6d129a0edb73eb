package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/sweep"
)

// countingRecorder counts the flushes and writes a handler makes.
type countingRecorder struct {
	*httptest.ResponseRecorder
	flushes, writes int
}

func (c *countingRecorder) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

func (c *countingRecorder) Flush() {
	c.flushes++
	c.ResponseRecorder.Flush()
}

// goneWriter is a client that hangs up after its first read: every
// write after the first fails.
type goneWriter struct {
	header http.Header
	writes int
}

func (g *goneWriter) Header() http.Header { return g.header }
func (g *goneWriter) WriteHeader(int)     {}
func (g *goneWriter) Write(p []byte) (int, error) {
	g.writes++
	if g.writes > 1 {
		return 0, errors.New("client closed the connection")
	}
	return len(p), nil
}

// TestRecordsStreamBatches streams a finished 1024-point job: the body
// is exactly the concatenated record lines, it leaves the handler in
// recordBatchBytes batches rather than one flush per line, and a client
// that hangs up mid-stream ends the handler.
func TestRecordsStreamBatches(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	v, err := m.Submit(Request{Budget: "analytic", Seed: 11, Spec: json.RawMessage(`{"name": "stream-1024",
		"axes": [
			{"name": "boards", "kind": "integer", "min": 2, "max": 17},
			{"name": "link-rate-gbps", "kind": "continuous", "min": 15, "max": 50, "step": 5},
			{"name": "latency-budget-bits", "kind": "enum", "values": [100, 200, 300, 400]},
			{"name": "butler", "kind": "bool"}
		]}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	res, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1024 {
		t.Fatalf("job has %d records, want 1024", len(res.Records))
	}
	var want []byte
	for _, rec := range res.Records {
		if want, err = sweep.AppendRecordJSON(want, rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
	}
	if len(want) <= recordBatchBytes {
		t.Fatalf("stream is %d bytes; the test needs more than one batch", len(want))
	}

	h := NewHandler(m)
	path := "/api/v1/jobs/" + v.ID + "/records"
	rec := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("stream differs from the concatenated record lines (%d vs %d bytes)", rec.Body.Len(), len(want))
	}
	maxFlushes := (len(want)+recordBatchBytes-1)/recordBatchBytes + 1
	if rec.flushes == 0 || rec.flushes > maxFlushes {
		t.Fatalf("%d flushes for %d bytes, want 1..%d", rec.flushes, len(want), maxFlushes)
	}

	gone := &goneWriter{header: http.Header{}}
	h.ServeHTTP(gone, httptest.NewRequest(http.MethodGet, path, nil))
	if gone.writes != 2 {
		t.Fatalf("handler made %d writes to a closed client, want it to stop after the failed second", gone.writes)
	}
}

// TestRecordsStreamNonFiniteRecords streams jobs whose records carry
// a +Inf noc_saturation (a single-router stack has no loaded channel):
// the power-constrained example, where every record does, and a grid
// whose second half does, past the first batch. Each stream is a
// complete 200 holding every record's line, the value spelled "+Inf".
func TestRecordsStreamNonFiniteRecords(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	doc, err := os.ReadFile("../../examples/specs/power-constrained-stack.json")
	if err != nil {
		t.Fatal(err)
	}
	// 128 finite 64-module records (more than one batch), then 128
	// 4-module ones.
	twoHalves := json.RawMessage(`{"name": "inf-after-a-batch",
		"axes": [
			{"name": "stack-modules", "kind": "enum", "values": [64, 4]},
			{"name": "boards", "kind": "integer", "min": 2, "max": 17},
			{"name": "link-rate-gbps", "kind": "continuous", "min": 15, "max": 50, "step": 5}
		]}`)
	for _, c := range []struct {
		spec            json.RawMessage
		records, finite int
	}{{doc, 18, 0}, {twoHalves, 256, 128}} {
		v, err := m.Submit(Request{Spec: c.spec})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, StateDone)
		res, err := m.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, rec := range res.Records {
			want, _ = sweep.AppendRecordJSON(want, rec)
			want = append(want, '\n')
		}
		resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/records")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("status %d, %d bytes, err %v; want a complete 200 of %d bytes", resp.StatusCode, len(body), err, len(want))
		}
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		spelled := 0
		for _, l := range lines {
			if strings.Contains(l, `"noc_saturation":"+Inf"`) {
				spelled++
			}
		}
		if len(lines) != c.records || spelled != c.records-c.finite {
			t.Fatalf("%d lines, %d spelling +Inf; want %d and %d", len(lines), spelled, c.records, c.records-c.finite)
		}
	}
}

// flushWriter hands a snapshot of the body so far to the test on every
// flush.
type flushWriter struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushed chan string
}

func (f *flushWriter) Header() http.Header { return f.header }
func (f *flushWriter) WriteHeader(int)     {}
func (f *flushWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}
func (f *flushWriter) Flush() {
	f.mu.Lock()
	body := f.body.String()
	f.mu.Unlock()
	f.flushed <- body
}

// TestGenerationsStreamWakesOnChange follows a running job without any
// timer: the stream parks on the job's change channel, receives a
// generation appended after it subscribed, returns when its client
// cancels, and returns by itself once the job turns terminal.
func TestGenerationsStreamWakesOnChange(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	h := NewHandler(m)
	j := &job{id: "job-gens", plan: Plan{Kind: KindOptimize}, state: StateRunning, changed: make(chan struct{})}
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()

	follow := func(ctx context.Context) (*flushWriter, <-chan struct{}) {
		fw := &flushWriter{header: http.Header{}, flushed: make(chan string)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+j.id+"/generations", nil)
			h.ServeHTTP(fw, req.WithContext(ctx))
		}()
		return fw, done
	}
	next := func(fw *flushWriter) string {
		t.Helper()
		select {
		case body := <-fw.flushed:
			return body
		case <-time.After(10 * time.Second):
			t.Fatal("no flush from the generations stream")
			return ""
		}
	}
	ended := func(done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("generations stream did not return")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	fw, done := follow(ctx)
	if body := next(fw); body != "" {
		t.Fatalf("first flush carried %q, want nothing yet", body)
	}
	// The first flush comes after the stream's first read, so this
	// generation is appended after it subscribed.
	j.appendGeneration(search.Generation{Gen: 0, Evaluated: 16, Front: []sweep.Record{}})
	var got search.Generation
	if err := json.Unmarshal([]byte(next(fw)), &got); err != nil || got.Gen != 0 || got.Evaluated != 16 {
		t.Fatalf("follower got generation %+v (%v), want gen 0 with 16 evaluated", got, err)
	}
	cancel()
	ended(done)

	// A fresh follower catches up on the existing generation, then
	// hangs up by itself when the job turns terminal.
	fw, done = follow(context.Background())
	next(fw)
	j.mu.Lock()
	j.state = StateCancelled
	m.noteFinishedLocked(j)
	j.mu.Unlock()
	next(fw)
	ended(done)
}
