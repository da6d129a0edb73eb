package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestDistributedTraceLifecycle is the tracing acceptance test: a
// trace-enabled daemon in distributed mode, two HTTP workers, one job —
// and the assertion that the collector holds one coherent trace for it
// (every span under one trace ID, chunk spans parented to the job's
// root, worker spans shipped back over HTTP), that the derived timeline
// explains at least 95% of the job's wall time, and that the records
// stay byte-identical to a single-node run with tracing on.
func TestDistributedTraceLifecycle(t *testing.T) {
	const (
		scenario = "paper-baseline"
		seed     = 11
	)
	sc, err := sweep.Get(scenario)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(context.Background(), sc, sweep.Config{
		Workers: 1, Seed: seed, Budget: sweep.AnalyticBudget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(single.Records)

	col := obs.NewCollector(1024)
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 3,
		LeaseTTL:    time.Second,
		Trace:       col,
	})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	v := submit(t, srv, Request{Scenario: scenario, Budget: "analytic", Seed: seed}, http.StatusAccepted)

	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(wctx, NewClient(srv.URL), WorkerOptions{
				Name: name, Poll: 10 * time.Millisecond, Workers: 1,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}
	pollDone(t, srv, v.ID)

	// Determinism first: tracing observes, the records must not know it
	// was on.
	fleet, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fleetJSON, singleJSON bytes.Buffer
	if err := sweep.WriteJSON(&fleetJSON, fleet); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteJSON(&singleJSON, single); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON.Bytes(), singleJSON.Bytes()) {
		t.Fatal("traced fleet result differs from single-node run")
	}

	// The raw trace: NDJSON, one trace ID, chunk spans under the root.
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type = %q", ct)
	}
	var spans []obs.SpanRecord
	scn := bufio.NewScanner(resp.Body)
	for scn.Scan() {
		var s obs.SpanRecord
		if err := json.Unmarshal(scn.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", scn.Text(), err)
		}
		spans = append(spans, s)
	}
	if err := scn.Err(); err != nil {
		t.Fatal(err)
	}

	var root obs.SpanRecord
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if n := len(byName["job"]); n != 1 {
		t.Fatalf("trace has %d root job spans, want 1 (%d spans total)", n, len(spans))
	}
	root = byName["job"][0]
	if root.ParentID != "" || root.JobID != v.ID || root.TraceID == "" {
		t.Fatalf("malformed root span: %+v", root)
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %s/%s carries trace %q, want %q — the trace fragmented",
				s.Name, s.SpanID, s.TraceID, root.TraceID)
		}
	}
	const wantChunks = 3 // 8 points at ChunkPoints=3
	if len(byName["chunk"]) != wantChunks {
		t.Fatalf("trace has %d chunk spans, want %d", len(byName["chunk"]), wantChunks)
	}
	chunkIDs := map[string]bool{}
	for _, ch := range byName["chunk"] {
		if ch.ParentID != root.SpanID {
			t.Fatalf("chunk span %s parented to %q, want root %q", ch.SpanID, ch.ParentID, root.SpanID)
		}
		if ch.Worker != "w1" && ch.Worker != "w2" {
			t.Fatalf("chunk span served by %q", ch.Worker)
		}
		chunkIDs[ch.SpanID] = true
	}
	// Worker-side spans made the HTTP round trip and nest under their
	// chunk span.
	if len(byName["worker"]) != wantChunks {
		t.Fatalf("trace has %d worker spans, want %d", len(byName["worker"]), wantChunks)
	}
	workerIDs := map[string]bool{}
	for _, ws := range byName["worker"] {
		if !chunkIDs[ws.ParentID] {
			t.Fatalf("worker span %s not parented to a chunk span (%q)", ws.SpanID, ws.ParentID)
		}
		workerIDs[ws.SpanID] = true
	}
	for _, es := range byName["evaluate"] {
		if es.Worker == "" {
			continue // the daemon-side evaluate phase of non-distributed jobs
		}
		if !workerIDs[es.ParentID] {
			t.Fatalf("evaluate span %s not parented to a worker span (%q)", es.SpanID, es.ParentID)
		}
	}
	for _, phase := range []string{"queued", "dispatch", "assemble"} {
		if len(byName[phase]) != 1 {
			t.Fatalf("trace has %d %q phase spans, want 1", len(byName[phase]), phase)
		}
	}

	// The derived timeline: phases and chunks populated, the cache split
	// correct, and the trace accounting for >= 95% of wall time.
	var tl Timeline
	getJSON(t, srv, "/api/v1/jobs/"+v.ID+"/timeline", &tl)
	if tl.TraceID != root.TraceID || tl.State != StateDone {
		t.Fatalf("timeline header = %+v", tl)
	}
	if tl.ComputedPoints != total || tl.CachedPoints != 0 {
		t.Fatalf("timeline points = %d computed / %d cached, want %d / 0",
			tl.ComputedPoints, tl.CachedPoints, total)
	}
	if len(tl.Chunks) != wantChunks {
		t.Fatalf("timeline has %d chunks, want %d", len(tl.Chunks), wantChunks)
	}
	gotPoints := 0
	for _, ch := range tl.Chunks {
		gotPoints += ch.Points
		if ch.TurnaroundSeconds < 0 || ch.Worker == "" {
			t.Fatalf("malformed chunk timing: %+v", ch)
		}
	}
	if gotPoints != total {
		t.Fatalf("chunk timings cover %d points, want %d", gotPoints, total)
	}
	if tl.SpanCoverage < 0.95 {
		t.Fatalf("span coverage = %.3f, want >= 0.95 (wall %.6fs)", tl.SpanCoverage, tl.WallSeconds)
	}

	// Fleet analytics: both workers profiled with their chunk and point
	// counts, and the turnaround ring populated.
	var fs FleetStats
	getJSON(t, srv, "/api/v1/fleet/stats", &fs)
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet stats profile %d workers, want 2: %+v", len(fs.Workers), fs)
	}
	chunks, points := 0, 0
	for _, w := range fs.Workers {
		chunks += w.ChunksDone
		points += w.PointsDone
		if w.ChunksDone > 0 && w.TurnaroundP50Seconds < 0 {
			t.Fatalf("worker %s has negative p50", w.Name)
		}
	}
	if chunks != wantChunks || points != total {
		t.Fatalf("fleet stats: %d chunks / %d points, want %d / %d", chunks, points, wantChunks, total)
	}
	if fs.TurnaroundSamples != wantChunks {
		t.Fatalf("fleet turnaround samples = %d, want %d", fs.TurnaroundSamples, wantChunks)
	}

	// An optimization walks the same pipeline: one dispatch batch per
	// generation between queued and assemble. Only the phases are
	// checked: its untraced breeding between generations is a share of
	// the wall time that depends on CPU load.
	optCtx, stopOptWorker := context.WithCancel(context.Background())
	optWorkerDone := make(chan struct{})
	go func() {
		defer close(optWorkerDone)
		RunWorker(optCtx, m, WorkerOptions{Name: "w3", Poll: 5 * time.Millisecond, Workers: 1})
	}()
	ov := submit(t, srv, optimizeReq(11), http.StatusAccepted)
	pollDone(t, srv, ov.ID)
	stopOptWorker()
	<-optWorkerDone
	checkTimeline(t, m, ov.ID, "dispatch", 3, 0)
	stopHTTPWorkers(m, stopWorkers, &wg)
}

// TestInProcessTraceTimeline: an in-process job is as legible as a
// fleet job — one evaluate span per batch (the grid of a sweep, each
// generation of an optimization) between queued and assemble.
func TestInProcessTraceTimeline(t *testing.T) {
	m := New(Options{JobWorkers: 1, Trace: obs.NewCollector(256)})
	defer m.Shutdown(context.Background())
	// Coverage counts only spans, so each job's evaluation must outweigh
	// the untraced moments around it (job start, span bookkeeping, the
	// optimizer's breeding between generations) whatever process-global
	// caches earlier tests warmed. Every point of this spec shares one
	// code and one stack, so each evaluate batch runs one smoke-budget
	// BER simulation: tens of milliseconds, never a cache hit.
	oneCode := json.RawMessage(`{"name": "one-code", "base": {"latency-budget-bits": 75},
		"axes": [{"name": "boards", "kind": "integer", "min": 2, "max": 5}], "budget": "smoke"}`)
	sv, err := m.Submit(Request{Spec: oneCode, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := m.Submit(Request{Kind: KindOptimize, Spec: oneCode, Seed: 5, Generations: 3, Population: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, sv.ID, StateDone)
	waitState(t, m, ov.ID, StateDone)
	checkTimeline(t, m, sv.ID, "evaluate", 1, 0.95)
	checkTimeline(t, m, ov.ID, "evaluate", 3, 0.95)
}

// checkTimeline asserts a done job's timeline lists one queued phase,
// batches phases named batch and one assemble phase, that the batches
// start where queued ends and end where assemble starts, and that its
// spans explain at least minCoverage of the job's wall time.
func checkTimeline(t *testing.T, m *Manager, id, batch string, batches int, minCoverage float64) {
	t.Helper()
	tl, err := m.JobTimeline(id)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	var queued, first, last, assemble PhaseView
	for _, p := range tl.Phases {
		count[p.Name]++
		switch {
		case p.Name == "queued":
			queued = p
		case p.Name == "assemble":
			assemble = p
		case p.Name == batch:
			if first.Name == "" || p.StartedAt.Before(first.StartedAt) {
				first = p
			}
			if last.Name == "" || p.EndedAt.After(last.EndedAt) {
				last = p
			}
		}
	}
	if count["queued"] != 1 || count[batch] != batches || count["assemble"] != 1 {
		t.Fatalf("job %s phases = %v, want queued 1, %s %d, assemble 1", id, count, batch, batches)
	}
	// The batches share their outer boundaries with the phases around
	// them, so no scheduling stall can fall between the spans there.
	if !first.StartedAt.Equal(queued.EndedAt) || !last.EndedAt.Equal(assemble.StartedAt) {
		t.Fatalf("job %s: queued ends %v, first %s starts %v; last %s ends %v, assemble starts %v — want shared boundaries",
			id, queued.EndedAt, batch, first.StartedAt, batch, last.EndedAt, assemble.StartedAt)
	}
	if tl.SpanCoverage < minCoverage {
		t.Fatalf("job %s span coverage = %.3f, want >= %.2f (wall %.6fs)", id, tl.SpanCoverage, minCoverage, tl.WallSeconds)
	}
}

// TestStragglerDetection drives the dispatcher with a stub clock: eight
// chunks complete in 10ms each to establish the fleet baseline, the
// ninth takes a full second — over the 4x-median threshold — and must
// be the only completion counted as a straggler, in the metric and in
// the fleet stats.
func TestStragglerDetection(t *testing.T) {
	var (
		mu  sync.Mutex
		now = time.Unix(1_700_000_000, 0)
	)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	reg := obs.NewRegistry()
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 1, // one point per chunk: the manycore grid yields 12 completions
		LeaseTTL:    time.Hour,
		Clock:       clock,
		Metrics:     reg,
		Trace:       obs.NewCollector(256),
	})
	defer m.Shutdown(context.Background())

	v, err := m.Submit(Request{Scenario: "manycore", Budget: "analytic", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 12
	for i := 0; i < chunks; i++ {
		l := leaseEventually(t, m, "w")
		budget, err := sweep.ParseBudget(l.Budget)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := sweep.EvaluatePoints(context.Background(), l.Scenario, l.Points,
			sweep.Config{Workers: 1, Seed: l.Seed, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if i == 8 {
			advance(time.Second) // the straggler: 100x the baseline turnaround
		} else {
			advance(10 * time.Millisecond)
		}
		if err := m.CompleteTraced(l.ID, recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, m, v.ID, StateDone)

	fs := m.FleetStats()
	if fs.StragglersTotal != 1 {
		t.Fatalf("stragglers = %d, want exactly 1 (%+v)", fs.StragglersTotal, fs)
	}
	if len(fs.Workers) != 1 || fs.Workers[0].Stragglers != 1 || fs.Workers[0].ChunksDone != chunks {
		t.Fatalf("worker profile = %+v", fs.Workers)
	}
	if fs.Workers[0].TurnaroundP95Seconds < fs.Workers[0].TurnaroundP50Seconds {
		t.Fatalf("p95 %.3f below p50 %.3f", fs.Workers[0].TurnaroundP95Seconds, fs.Workers[0].TurnaroundP50Seconds)
	}
	if fs.FleetMedianTurnaroundSeconds <= 0 {
		t.Fatalf("fleet median = %v", fs.FleetMedianTurnaroundSeconds)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sweepd_lease_straggler_total 1") {
		t.Fatalf("exposition missing straggler count:\n%s", buf.String())
	}

	// The slow chunk is visible in the timeline too.
	tl, err := m.JobTimeline(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, ch := range tl.Chunks {
		if ch.TurnaroundSeconds > 0.5 {
			slow++
		}
	}
	if slow != 1 {
		t.Fatalf("timeline shows %d slow chunks, want 1: %+v", slow, tl.Chunks)
	}
}

// TestClientCompleteRetriesServerError pins the worker's completion
// retry over the real Client: the first attempt answers 500, the retry
// lands with the same body, and the daemon sees exactly two attempts.
func TestClientCompleteRetriesServerError(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies []string
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/workers/lease", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Lease{
			ID: "L1", JobID: "job-1", Scenario: "paper-baseline",
			Engine: sweep.EngineVersion, TTLSeconds: 30,
		})
	})
	mux.HandleFunc("POST /api/v1/workers/leases/L1/complete", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		n := len(bodies)
		mu.Unlock()
		if n == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClient(srv.URL)
	l, ok, err := c.Lease("w")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	recs := []sweep.Record{{Scenario: l.Scenario, Index: 0, Label: "p0"}}
	// The real worker retry loop: first attempt 500s, the retry lands.
	if err := completeWithRetry(context.Background(), c, l.ID, recs, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("daemon saw %d completion attempts, want 2", len(bodies))
	}
	if bodies[0] != bodies[1] || !strings.Contains(bodies[0], `"label":"p0"`) {
		t.Fatalf("retry body differs from the first attempt or lost the records:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestTraceEndpointsWithoutCollector pins the disabled-tracing surface:
// trace and timeline answer 404, fleet stats still answers (empty).
func TestTraceEndpointsWithoutCollector(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	v := submit(t, srv, Request{Scenario: "embedded-box", Budget: "analytic", Seed: 1}, http.StatusAccepted)
	pollDone(t, srv, v.ID)

	for _, path := range []string{"/trace", "/timeline"} {
		if got := statusOf(t, srv, http.MethodGet, "/api/v1/jobs/"+v.ID+path); got != http.StatusNotFound {
			t.Fatalf("GET %s = %d without a collector, want 404", path, got)
		}
	}
	var fs FleetStats
	getJSON(t, srv, "/api/v1/fleet/stats", &fs)
	if len(fs.Workers) != 0 || fs.StragglersTotal != 0 {
		t.Fatalf("fleet stats on an idle daemon = %+v", fs)
	}
}

// TestHealthzBuildAndUptime pins the build-info satellite: /healthz
// reports uptime and build identity, and the registry exposes the
// sweepd_build_info and sweepd_uptime_seconds gauges.
func TestHealthzBuildAndUptime(t *testing.T) {
	var (
		mu  sync.Mutex
		now = time.Unix(1_700_000_000, 0)
	)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	reg := obs.NewRegistry()
	m := New(Options{Clock: clock, Metrics: reg})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	mu.Lock()
	now = now.Add(90 * time.Second)
	mu.Unlock()

	var health struct {
		Status    string  `json:"status"`
		Uptime    float64 `json:"uptime_seconds"`
		GoVersion string  `json:"go_version"`
		Revision  string  `json:"revision"`
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "ok" || health.Uptime != 90 {
		t.Fatalf("healthz = %+v, want ok with 90s uptime", health)
	}
	if !strings.HasPrefix(health.GoVersion, "go") {
		t.Fatalf("go_version = %q", health.GoVersion)
	}
	if health.Revision == "" {
		t.Fatalf("revision empty; want a VCS hash or \"unknown\"")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweepd_build_info{") {
		t.Fatalf("exposition missing sweepd_build_info:\n%s", out)
	}
	if !strings.Contains(out, "sweepd_uptime_seconds 90") {
		t.Fatalf("exposition missing sweepd_uptime_seconds:\n%s", out)
	}
}
