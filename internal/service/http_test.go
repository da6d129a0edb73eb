package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// TestDaemonLifecycle drives the full serve path the way cmd/sweepd
// does: start a store-backed manager behind the HTTP API, submit
// paper-baseline at smoke budget, poll the job to completion, stream its
// records, fetch the Pareto front, prove a resubmission is served
// entirely from cache, and shut down gracefully with an in-flight job
// cancelled. Parallel: its seconds of smoke-budget evaluation overlap
// the tests that wait out a lease hold.
func TestDaemonLifecycle(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{JobWorkers: 2, Cache: st})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Liveness and catalog. healthz must report the engine version so
	// optimizer clients and worker binaries can preflight-check
	// compatibility; this doubles as the regression test for that field.
	var health map[string]any
	getJSON(t, srv, "/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	if engine, ok := health["engine"].(float64); !ok || int(engine) != sweep.EngineVersion {
		t.Fatalf("healthz engine = %v, want %d", health["engine"], sweep.EngineVersion)
	}
	var scenarios []scenarioInfo
	getJSON(t, srv, "/api/v1/scenarios", &scenarios)
	grid := 0
	for _, sc := range scenarios {
		if sc.Name == "paper-baseline" {
			grid = sc.Points
		}
	}
	if grid == 0 {
		t.Fatal("paper-baseline missing from scenario listing")
	}

	// Submit and poll to completion.
	req := Request{Scenario: "paper-baseline", Budget: "smoke", Seed: 3}
	first := submit(t, srv, req, http.StatusAccepted)
	v := pollDone(t, srv, first.ID)
	if v.Progress.Done != grid || v.Progress.Pending != 0 {
		t.Fatalf("completed progress = %+v, want %d done", v.Progress, grid)
	}
	if v.Progress.Cached != 0 {
		t.Fatalf("cold job served %d points from cache", v.Progress.Cached)
	}

	// Stream the records as NDJSON.
	firstRecs, firstBody := getRecords(t, srv, first.ID)
	if len(firstRecs) != grid {
		t.Fatalf("streamed %d records, want %d", len(firstRecs), grid)
	}
	for i, rec := range firstRecs {
		if rec.Scenario != "paper-baseline" || rec.Index != i {
			t.Fatalf("record %d malformed: %+v", i, rec)
		}
		if rec.BERCodewords == 0 {
			t.Fatalf("smoke-budget record %d has no Monte-Carlo results", i)
		}
	}

	// Pareto front.
	var front struct {
		Scenario string         `json:"scenario"`
		Front    []sweep.Record `json:"front"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+first.ID+"/pareto", &front)
	if front.Scenario != "paper-baseline" || len(front.Front) == 0 {
		t.Fatalf("pareto = %q with %d records", front.Scenario, len(front.Front))
	}
	for _, rec := range front.Front {
		if !rec.Pareto {
			t.Fatalf("front record %d not flagged Pareto", rec.Index)
		}
	}

	// Resubmission: identical request, zero new points computed.
	second := submit(t, srv, req, http.StatusAccepted)
	v = pollDone(t, srv, second.ID)
	if v.Progress.Cached != grid {
		t.Fatalf("resubmission cached %d of %d points", v.Progress.Cached, grid)
	}
	_, secondBody := getRecords(t, srv, second.ID)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cached job's record stream is not byte-identical")
	}

	// Records of an unfinished or unknown job.
	if code := statusOf(t, srv, "GET", "/api/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}
	if code := statusOf(t, srv, "POST", "/api/v1/jobs"); code != http.StatusBadRequest {
		t.Fatalf("empty submission status = %d, want 400", code)
	}

	// Graceful shutdown with an in-flight job: a single-worker sequential
	// sweep at a fresh seed runs for seconds, so it is mid-flight when
	// Shutdown cancels its context.
	inflight := submit(t, srv,
		Request{Scenario: "paper-baseline", Budget: "smoke", Seed: 99, Workers: 1},
		http.StatusAccepted)
	waitHTTPState(t, srv, inflight.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	var got JobView
	getJSON(t, srv, "/api/v1/jobs/"+inflight.ID, &got)
	if got.State != StateCancelled {
		t.Fatalf("in-flight job = %s after shutdown, want cancelled", got.State)
	}
	if code := statusOf(t, srv, "DELETE", "/api/v1/jobs/"+inflight.ID); code != http.StatusOK {
		t.Fatalf("cancel of terminal job = %d, want 200 no-op", code)
	}
	// The drained daemon refuses new work but keeps answering reads.
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"scenario":"paper-baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit = %d, want 503", resp.StatusCode)
	}
	var all JobPage
	getJSON(t, srv, "/api/v1/jobs", &all)
	if len(all.Jobs) != 3 {
		t.Fatalf("job listing has %d entries, want 3", len(all.Jobs))
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func submit(t *testing.T, srv *httptest.Server, req Request, wantStatus int) JobView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d, want %d: %s", resp.StatusCode, wantStatus, b)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("submission returned no job id")
	}
	return v
}

func pollDone(t *testing.T, srv *httptest.Server, id string) JobView {
	t.Helper()
	return waitHTTPState(t, srv, id, StateDone)
}

func waitHTTPState(t *testing.T, srv *httptest.Server, id string, want State) JobView {
	t.Helper()
	// A smoke paper-baseline sweep is seconds of compute per core; under
	// -race on a small CI box it stretches to minutes.
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		var v JobView
		getJSON(t, srv, "/api/v1/jobs/"+id, &v)
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s (err %q)", id, v.State, want, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// getRecords streams a done job's NDJSON records, returning both the
// parsed records and the raw bytes for identity checks.
func getRecords(t *testing.T, srv *httptest.Server, id string) ([]sweep.Record, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("records = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("records content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var recs []sweep.Record
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("NDJSON line did not parse: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs, raw
}

func statusOf(t *testing.T, srv *httptest.Server, method, path string) int {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if method == "POST" {
		req.Body = io.NopCloser(strings.NewReader(""))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestStoreEndpoint pins the observability surface of the storage
// engine: GET /api/v1/store serves aggregate and per-shard counters
// when a store is wired, 404s when not, and healthz carries the cache
// hit rate exactly when a store exists.
func TestStoreEndpoint(t *testing.T) {
	st, err := store.OpenSharded(t.TempDir(), 4, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{Cache: st, StoreStats: func() (store.Stats, []store.Stats) {
		return st.Stats(), st.ShardStats()
	}})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Drive known traffic straight through the cache the manager holds.
	rec := sweep.Record{Scenario: "t", Label: "p"}
	st.Put("k0", rec)
	st.Get("k0")     // hit
	st.Get("absent") // miss

	var view storeView
	getJSON(t, srv, "/api/v1/store", &view)
	if view.Store.Shards != 4 || view.Store.Entries != 1 || view.Store.Puts != 1 {
		t.Fatalf("store view = %+v", view.Store)
	}
	if view.Store.Hits != 1 || view.Store.Misses != 1 {
		t.Fatalf("store view counters = %+v", view.Store)
	}
	if len(view.Shards) != 4 {
		t.Fatalf("store view lists %d shards, want 4", len(view.Shards))
	}
	perShard := 0
	for _, sh := range view.Shards {
		perShard += sh.Entries
	}
	if perShard != 1 {
		t.Fatalf("per-shard entries sum to %d, want 1", perShard)
	}

	var health map[string]any
	getJSON(t, srv, "/healthz", &health)
	rate, ok := health["cache_hit_rate"].(float64)
	if !ok || rate != 0.5 {
		t.Fatalf("healthz cache_hit_rate = %v, want 0.5", health["cache_hit_rate"])
	}

	// A manager without a store answers 404 and reports no hit rate.
	bare := New(Options{})
	defer bare.Shutdown(context.Background())
	bareSrv := httptest.NewServer(NewHandler(bare))
	defer bareSrv.Close()
	resp, err := http.Get(bareSrv.URL + "/api/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless GET /api/v1/store = %d, want 404", resp.StatusCode)
	}
	health = nil
	getJSON(t, bareSrv, "/healthz", &health)
	if _, present := health["cache_hit_rate"]; present {
		t.Fatal("storeless healthz reports a cache_hit_rate")
	}
}
