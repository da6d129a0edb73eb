package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// metricLine matches one Prometheus sample: name, optional label set,
// value. Kept in sync with the stricter parser tests in internal/obs;
// here it guards the service-level exposition end to end.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// scrapeMetrics fetches GET /metrics and returns the samples keyed by
// "name{labels}", failing the test on any malformed line.
func scrapeMetrics(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("GET /metrics content type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
		space := strings.LastIndexByte(line, ' ')
		key, valStr := line[:space], line[space+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[key] = v
	}
	return samples
}

// sumByPrefix folds every sample whose key starts with prefix — the way
// to total a family across label values (per-worker counters, per-shard
// gauges) without pinning which labels exist.
func sumByPrefix(samples map[string]float64, prefix string) float64 {
	var total float64
	for k, v := range samples {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// TestMetricsLifecycle is the observability acceptance test: a
// store-backed distributed daemon, two HTTP workers, one job — and the
// assertions that (a) the run populated every metric family the issue
// promises (HTTP, job, lease, worker, store) and (b) observing changed
// nothing: the result is still byte-identical to a single-node run.
func TestMetricsLifecycle(t *testing.T) {
	const (
		scenario = "paper-baseline"
		seed     = 21
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

	// One registry spans the store and the service, exactly like
	// cmd/sweepd wires it.
	reg := obs.NewRegistry()
	st, err := store.OpenSharded(t.TempDir(), 2, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 3,
		LeaseTTL:    10 * time.Second,
		Cache:       st,
		Metrics:     reg,
		StoreStats: func() (store.Stats, []store.Stats) {
			return st.Stats(), st.ShardStats()
		},
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
	stopHTTPWorkers(m, stopWorkers, &wg)

	// Determinism first: the instrumented fleet run answers exactly what
	// one process would. Metrics observe, never influence.
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
		t.Fatal("instrumented fleet result differs from single-node run")
	}

	samples := scrapeMetrics(t, srv)
	ft := float64(total)

	// Job manager families.
	if got := samples[`sweepd_jobs_submitted_total{kind="sweep"}`]; got != 1 {
		t.Errorf("jobs submitted = %v, want 1", got)
	}
	if got := samples[`sweepd_jobs_finished_total{kind="sweep",state="done"}`]; got != 1 {
		t.Errorf("jobs finished done = %v, want 1", got)
	}
	if got := samples[`sweepd_job_duration_seconds_count{kind="sweep"}`]; got != 1 {
		t.Errorf("job duration observations = %v, want 1", got)
	}
	if got := samples[`sweepd_job_points_total{fate="computed"}`]; got != ft {
		t.Errorf("computed points = %v, want %v", got, ft)
	}
	if got := samples[`sweepd_job_queue_depth`]; got != 0 {
		t.Errorf("queue depth after completion = %v, want 0", got)
	}
	if got := samples[`sweepd_jobs_running`]; got != 0 {
		t.Errorf("jobs running after completion = %v, want 0", got)
	}

	// Dispatcher and worker families. Every chunk was leased at least
	// once and completed exactly once; each completion books a
	// turnaround observation and per-worker credit.
	issued := samples[`sweepd_leases_total{event="issued"}`]
	completed := samples[`sweepd_leases_total{event="completed"}`]
	if completed < 1 || issued < completed {
		t.Errorf("leases issued=%v completed=%v, want completed >= 1 and issued >= completed", issued, completed)
	}
	if got := samples[`sweepd_lease_turnaround_seconds_count`]; got != completed {
		t.Errorf("turnaround observations = %v, want %v", got, completed)
	}
	if got := sumByPrefix(samples, `sweepd_worker_points_total{`); got != ft {
		t.Errorf("fleet worker points = %v, want %v", got, ft)
	}

	// HTTP middleware families. The submit POST succeeded exactly once,
	// and the scrape request itself is the one in flight right now.
	if got := samples[`sweepd_http_requests_total{route="POST /api/v1/jobs",code="2xx"}`]; got != 1 {
		t.Errorf("submit requests = %v, want 1", got)
	}
	if got := samples[`sweepd_http_request_duration_seconds_count{route="POST /api/v1/jobs"}`]; got != 1 {
		t.Errorf("submit duration observations = %v, want 1", got)
	}
	if got := samples[`sweepd_http_in_flight_requests`]; got != 1 {
		t.Errorf("in-flight during scrape = %v, want 1 (the scrape itself)", got)
	}

	// Store families: every point was looked up (miss) and persisted,
	// and the per-shard entry gauges sum to the grid.
	if got := samples[`sweep_store_puts_total`]; got != ft {
		t.Errorf("store puts = %v, want %v", got, ft)
	}
	if got := samples[`sweep_store_gets_total{result="miss"}`]; got < ft {
		t.Errorf("store misses = %v, want >= %v", got, ft)
	}
	lookups := samples[`sweep_store_gets_total{result="miss"}`] + samples[`sweep_store_gets_total{result="hit"}`]
	if got := samples[`sweep_store_get_seconds_count`]; got != lookups {
		t.Errorf("get latency observations = %v, want %v (every lookup timed)", got, lookups)
	}
	if got := sumByPrefix(samples, `sweep_store_shard_entries{`); got != ft {
		t.Errorf("shard entries sum = %v, want %v", got, ft)
	}
}

// TestHealthzCacheHitRateTransition drives the miss-to-hit transition
// through the job path: a cold job misses every point (rate 0), an
// identical resubmission hits every point, and healthz reports the
// blended rate.
func TestHealthzCacheHitRateTransition(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{
		JobWorkers: 1,
		Cache:      st,
		StoreStats: func() (store.Stats, []store.Stats) {
			return st.Stats(), nil
		},
	})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	hitRate := func() float64 {
		t.Helper()
		var payload map[string]any
		getJSON(t, srv, "/healthz", &payload)
		rate, ok := payload["cache_hit_rate"].(float64)
		if !ok {
			t.Fatalf("healthz payload has no cache_hit_rate: %v", payload)
		}
		return rate
	}

	if got := hitRate(); got != 0 {
		t.Fatalf("cache_hit_rate before any job = %v, want 0", got)
	}

	req := Request{Scenario: "embedded-box", Budget: "analytic", Seed: 9}
	first := submit(t, srv, req, http.StatusAccepted)
	pollDone(t, srv, first.ID)
	if got := hitRate(); got != 0 {
		t.Fatalf("cache_hit_rate after cold job = %v, want 0 (every point missed)", got)
	}

	second := submit(t, srv, req, http.StatusAccepted)
	sv := pollDone(t, srv, second.ID)
	if sv.Progress.Cached != sv.Progress.Total {
		t.Fatalf("resubmission cached %d of %d points", sv.Progress.Cached, sv.Progress.Total)
	}
	// Cold job: N misses. Warm job: N hits. Blended: exactly one half.
	if got := hitRate(); got != 0.5 {
		t.Fatalf("cache_hit_rate after warm job = %v, want 0.5", got)
	}
}

// TestMetricsRouteIsInstrumented pins that /metrics goes through the
// same middleware as every other route: scraping twice must show the
// first scrape counted.
func TestMetricsRouteIsInstrumented(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	scrapeMetrics(t, srv)
	samples := scrapeMetrics(t, srv)
	if got := samples[`sweepd_http_requests_total{route="GET /metrics",code="2xx"}`]; got != 1 {
		t.Fatalf("first scrape not counted by the second: %v", got)
	}
}
