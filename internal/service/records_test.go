package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// grid512 is a 512-point analytic spec: 16 board counts x 8 link
// rates x 4 latency budgets.
var grid512 = json.RawMessage(`{"name": "retained-512",
	"axes": [
		{"name": "boards", "kind": "integer", "min": 2, "max": 17},
		{"name": "link-rate-gbps", "kind": "continuous", "min": 15, "max": 50, "step": 5},
		{"name": "latency-budget-bits", "kind": "enum", "values": [100, 200, 300, 400]}
	]}`)

// runJob submits req and waits for it to finish done.
func runJob(t *testing.T, m *Manager, req Request) JobView {
	t.Helper()
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, m, v.ID, StateDone)
}

// heapAfterGC is the live heap once the collector has run.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedJobMemory resubmits one 512-point analytic grid 64 times
// and bounds the live heap each retained point adds: a retained job
// holds keys into the manager's record table, not records, and no
// grid. A job holding its own records (and its spec's grid) costs
// about 490 B a point; a key costs one string header.
func TestRetainedJobMemory(t *testing.T) {
	const resubmits, points, maxBytesPerPoint = 64, 512, 96
	req := Request{Spec: grid512, Budget: "analytic", Seed: 7}
	measure := func(t *testing.T, m *Manager) {
		t.Helper()
		fill := runJob(t, m, req)
		if fill.Progress.Total != points {
			t.Fatalf("grid has %d points, want %d", fill.Progress.Total, points)
		}
		before := heapAfterGC()
		for i := 0; i < resubmits; i++ {
			runJob(t, m, req)
		}
		after := heapAfterGC()
		perPoint := (float64(after) - float64(before)) / (resubmits * points)
		t.Logf("heap %d -> %d bytes: %.1f B per retained point", before, after, perPoint)
		if perPoint > maxBytesPerPoint {
			t.Errorf("each retained point costs %.1f B of live heap, want at most %d", perPoint, maxBytesPerPoint)
		}
		if records, held := m.records.size(); records != points || held != (resubmits+1)*points {
			t.Errorf("record table holds %d records and %d keys, want %d and %d", records, held, points, (resubmits+1)*points)
		}
	}

	t.Run("store", func(t *testing.T) {
		st, err := store.OpenSharded(t.TempDir(), 4, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m := New(Options{JobWorkers: 1, Cache: st, Distributed: true, ChunkPoints: 64, LeaseTTL: time.Minute})
		defer m.Shutdown(context.Background())
		wctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(wctx, m, WorkerOptions{Name: "w", Poll: 5 * time.Millisecond, Workers: 1})
		}()
		defer func() { stop(); wg.Wait() }()
		measure(t, m)
	})
	t.Run("store-less", func(t *testing.T) {
		m := New(Options{JobWorkers: 1})
		defer m.Shutdown(context.Background())
		measure(t, m)
	})
}

// TestTerminalJobHoldsNoGrid: once a job is terminal it references no
// grid (neither its own slice nor the plan's Points closure) and no
// record slice, whichever way it ended.
func TestTerminalJobHoldsNoGrid(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	done := runJob(t, m, Request{Spec: grid512})
	opt := runJob(t, m, Request{Kind: KindOptimize, Space: "paper-baseline", Generations: 2, Population: 4})

	blocked := New(Options{JobWorkers: 1})
	release := make(chan struct{})
	blocked.evaluate = func(ctx context.Context, _ *job, _ []sweep.Point) ([]sweep.Record, []string, int, error) {
		select {
		case <-ctx.Done():
		case <-release:
		}
		return nil, nil, 0, ctx.Err()
	}
	running, err := blocked.Submit(Request{Spec: grid512})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocked, running.ID, StateRunning)
	queued, err := blocked.Submit(Request{Spec: grid512})
	if err != nil {
		t.Fatal(err)
	}
	blocked.Cancel(queued.ID)
	blocked.Cancel(running.ID)
	waitState(t, blocked, running.ID, StateCancelled)
	close(release)
	defer blocked.Shutdown(context.Background())

	for _, c := range []struct {
		m  *Manager
		id string
	}{{m, done.ID}, {m, opt.ID}, {blocked, running.ID}, {blocked, queued.ID}} {
		c.m.mu.Lock()
		j := c.m.jobs[c.id]
		c.m.mu.Unlock()
		j.mu.Lock()
		if j.pts != nil || j.plan.Scenario.Points != nil {
			t.Errorf("%s job %s still references its grid", j.state, c.id)
		}
		if j.result != nil && j.result.Records != nil {
			t.Errorf("%s job %s keeps a record slice of %d", j.state, c.id, len(j.result.Records))
		}
		if j.state == StateDone && len(j.keys) != j.total {
			t.Errorf("done job %s holds %d keys for %d points", c.id, len(j.keys), j.total)
		}
		j.mu.Unlock()
	}
}

// parkingWriter is a records client that parks at its first flush
// until the test lets it go on.
type parkingWriter struct {
	header  http.Header
	mu      sync.Mutex
	body    []byte
	parked  chan struct{}
	resume  chan struct{}
	flushes int
}

func (p *parkingWriter) Header() http.Header { return p.header }
func (p *parkingWriter) WriteHeader(int)     {}
func (p *parkingWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.body = append(p.body, b...)
	return len(b), nil
}
func (p *parkingWriter) Flush() {
	if p.flushes++; p.flushes == 1 {
		close(p.parked)
		<-p.resume
	}
}

// TestRecordsStreamSurvivesEviction evicts a job while its records
// stream is past the first batch: the stream still delivers every
// record, byte-identical to the job's Result, and the table releases
// the evicted job's references only when the stream ends.
func TestRecordsStreamSurvivesEviction(t *testing.T) {
	m := New(Options{JobWorkers: 1, RetainJobs: 1})
	defer m.Shutdown(context.Background())
	h := NewHandler(m)
	v := runJob(t, m, Request{Spec: grid512, Seed: 5})
	res, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
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

	pw := &parkingWriter{header: http.Header{}, parked: make(chan struct{}), resume: make(chan struct{})}
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		h.ServeHTTP(pw, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+v.ID+"/records", nil))
	}()
	<-pw.parked
	// RetainJobs 1: this submission evicts the streaming job.
	other := runJob(t, m, Request{Scenario: "embedded-box"})
	if _, err := m.Get(v.ID); err == nil {
		t.Fatal("streaming job was not evicted")
	}
	if records, held := m.records.size(); held != 512+other.Progress.Total || records != held {
		t.Errorf("mid-stream the table holds %d records and %d keys, want the evicted job's 512 plus %d", records, held, other.Progress.Total)
	}
	close(pw.resume)
	<-streamed
	if string(pw.body) != string(want) {
		t.Fatalf("stream across the eviction is %d bytes, want the job's %d", len(pw.body), len(want))
	}
	if records, held := m.records.size(); held != other.Progress.Total || records != held {
		t.Errorf("after the stream the table holds %d records and %d keys, want %d of each", records, held, other.Progress.Total)
	}
}

// TestRetainedGauges runs overlapping jobs through a manager retaining
// four, then checks both record-table gauges against what the
// retained done jobs account for, computed from their records: every
// reference is released with its job (no leak) and no record shared
// with a retained job goes early.
func TestRetainedGauges(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		m := New(Options{JobWorkers: 1, RetainJobs: 4, Distributed: distributed, ChunkPoints: 16, LeaseTTL: time.Minute})
		srv := httptest.NewServer(NewHandler(m))
		wctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(wctx, m, WorkerOptions{Name: "w", Poll: 5 * time.Millisecond, Workers: 1})
		}()
		// The four retained jobs share records with each other and with
		// the evicted ones.
		optimize := Request{Kind: KindOptimize, Space: "embedded-box", Generations: 2, Population: 4, Seed: 1}
		reqs := []Request{
			{Scenario: "embedded-box", Seed: 1},
			{Spec: grid512, Seed: 1},
			optimize,
			{Scenario: "embedded-box", Seed: 2},
			{Scenario: "paper-baseline", Seed: 1},
			{Scenario: "embedded-box", Seed: 1},
			optimize,
			{Scenario: "embedded-box", Seed: 1, Objectives: []string{"tx-power", "noc-latency"}},
			{Scenario: "paper-baseline", Seed: 1},
		}
		for _, req := range reqs {
			runJob(t, m, req)
		}
		distinct, held := retainedAccount(t, m)
		samples := scrapeMetrics(t, srv)
		if got := samples["sweepd_retained_records"]; got != float64(distinct) {
			t.Errorf("distributed=%v: sweepd_retained_records = %v, want %d", distributed, got, distinct)
		}
		if got := samples["sweepd_retained_points"]; got != float64(held) {
			t.Errorf("distributed=%v: sweepd_retained_points = %v, want %d", distributed, got, held)
		}
		if distinct == held {
			t.Errorf("distributed=%v: the retained jobs share no record; the test cannot see sharing", distributed)
		}
		stop()
		wg.Wait()
		srv.Close()
		m.Shutdown(context.Background())
	}
}

// retainedAccount counts, from the records of the retained done jobs,
// the distinct PointKeys and the records they hold in all.
func retainedAccount(t *testing.T, m *Manager) (distinct, held int) {
	t.Helper()
	keys := map[string]bool{}
	for _, v := range m.ListPage(ListQuery{State: StateDone, Limit: maxListLimit}).Jobs {
		res, err := m.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sweep.ParseBudget(res.Budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Records {
			keys[sweep.PointKey(rec.Scenario, sweep.Point{Index: rec.Index, Label: rec.Label, Spec: rec.Spec}, b, res.Seed)] = true
		}
		held += len(res.Records)
	}
	return len(keys), held
}

// TestRecordTableConcurrentReads streams retained jobs' records from
// several clients while submissions retire those jobs: every stream
// that starts is its job's exact record stream, and once all is quiet
// the table holds exactly what the retained jobs account for.
func TestRecordTableConcurrentReads(t *testing.T) {
	want := map[uint64]string{}
	ref := New(Options{JobWorkers: 1})
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := ref.Result(runJob(t, ref, Request{Scenario: "paper-baseline", Seed: seed}).ID)
		if err != nil {
			t.Fatal(err)
		}
		var body []byte
		for _, rec := range res.Records {
			if body, err = sweep.AppendRecordJSON(body, rec); err != nil {
				t.Fatal(err)
			}
			body = append(body, '\n')
		}
		want[seed] = string(body)
	}
	ref.Shutdown(context.Background())

	m := New(Options{JobWorkers: 2, RetainJobs: 2})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range m.ListPage(ListQuery{State: StateDone}).Jobs {
					resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/records")
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusNotFound:
						// Evicted before the stream opened.
					case err != nil || resp.StatusCode != http.StatusOK:
						t.Errorf("%s: status %d, %v", v.ID, resp.StatusCode, err)
					case string(body) != want[v.Seed]:
						t.Errorf("%s (seed %d): stream of %d bytes differs from the reference %d", v.ID, v.Seed, len(body), len(want[v.Seed]))
					}
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		runJob(t, m, Request{Scenario: "paper-baseline", Seed: uint64(1 + i%3)})
	}
	close(stop)
	wg.Wait()
	distinct, held := retainedAccount(t, m)
	if records, points := m.records.size(); records != distinct || points != held {
		t.Errorf("table holds %d records and %d keys, retained jobs account for %d and %d", records, points, distinct, held)
	}
}
