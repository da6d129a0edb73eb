package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// specNoC is the bursty/hotspot NoC traffic family, small enough to
// sweep in milliseconds at the analytic budget.
const specNoC = `{
	"name": "noc-burst",
	"base": {"traffic-pattern": "hotspot", "traffic-hotspot-module": 0, "stack-modules": 16},
	"axes": [
		{"name": "traffic-hotspot-fraction", "kind": "continuous", "min": 0.2, "max": 0.4, "step": 0.2},
		{"name": "stack-injection-rate", "kind": "continuous", "min": 0.05, "max": 0.1, "step": 0.05}
	],
	"constraints": ["noc_saturation < 1"],
	"budget": "analytic"
}`

// specNoCReordered is specNoC with every object's keys in a different
// order. Canonicalization must make it the same grid — same scenario
// name, same PointKeys, zero computed points when resubmitted.
const specNoCReordered = `{
	"budget": "analytic",
	"constraints": ["noc_saturation < 1"],
	"axes": [
		{"step": 0.2, "min": 0.2, "max": 0.4, "kind": "continuous", "name": "traffic-hotspot-fraction"},
		{"kind": "continuous", "name": "stack-injection-rate", "max": 0.1, "min": 0.05, "step": 0.05}
	],
	"base": {"stack-modules": 16, "traffic-hotspot-module": 0, "traffic-pattern": "hotspot"},
	"name": "noc-burst"
}`

// specInterference is the raytraced interference-channel family.
const specInterference = `{
	"name": "interference-box",
	"base": {"boards": 4},
	"axes": [
		{"name": "interference-neighbors", "kind": "integer", "min": 0, "max": 1},
		{"name": "interference-copper-boards", "kind": "bool"}
	],
	"budget": "analytic"
}`

// TestSpecJobDistributed is the acceptance test of the spec pipeline:
// two spec families submitted inline over HTTP to a distributed daemon,
// computed by two HTTP workers that compile the leased spec themselves,
// byte-identical to a single-node in-process run — and a key-reordered
// resubmission served entirely from cache without a single new point.
func TestSpecJobDistributed(t *testing.T) {
	const seed = 7

	// Single-node reference run, straight through the sweep engine.
	parsed, err := spec.Parse([]byte(specNoC))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := parsed.Compile()
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(context.Background(), compiled.Scenario, sweep.Config{
		Workers: 1, Seed: seed, Budget: compiled.Budget, Feasible: compiled.Feasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(single.Records)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 1,
		LeaseTTL:    time.Second,
		Cache:       st,
	})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(wctx, NewClient(srv.URL), WorkerOptions{
				Name: name, Poll: 5 * time.Millisecond, Workers: 1,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}

	v := submit(t, srv, Request{Spec: json.RawMessage(specNoC), Seed: seed}, http.StatusAccepted)
	if !strings.HasPrefix(v.Scenario, "spec/") {
		t.Fatalf("spec job scenario = %q, want a spec/ content address", v.Scenario)
	}
	if v.Spec != "noc-burst" {
		t.Fatalf("spec job name = %q, want the document's name", v.Spec)
	}
	if v.Budget != "analytic" {
		t.Fatalf("spec job budget = %q, want the spec's own", v.Budget)
	}
	done := pollDone(t, srv, v.ID)
	if done.Progress.Done != total || done.Progress.Cached != 0 {
		t.Fatalf("fleet progress = %+v, want %d computed", done.Progress, total)
	}

	// Byte-identity with the single-node run: the two HTTP workers
	// compiled the leased spec locally and their merged records carry
	// the same PointKeys, metrics and Pareto front.
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
		t.Fatalf("fleet spec run differs from single-node run:\nfleet:  %s\nsingle: %s",
			fleetJSON.Bytes(), singleJSON.Bytes())
	}

	// Key-reordered resubmission: canonicalization makes it the same
	// grid, so every point is a cache hit and nothing is computed.
	v2 := submit(t, srv, Request{Spec: json.RawMessage(specNoCReordered), Seed: seed}, http.StatusAccepted)
	if v2.Scenario != v.Scenario {
		t.Fatalf("reordered spec compiled to %q, want %q", v2.Scenario, v.Scenario)
	}
	done2 := pollDone(t, srv, v2.ID)
	if done2.Progress.Cached != total {
		t.Fatalf("reordered resubmission computed %d of %d points, want all cached",
			total-done2.Progress.Cached, total)
	}
	_, first := getRecords(t, srv, v.ID)
	_, second := getRecords(t, srv, v2.ID)
	if !bytes.Equal(first, second) {
		t.Fatal("reordered spec's record stream is not byte-identical")
	}

	// Second family end-to-end through the same fleet.
	v3 := submit(t, srv, Request{Spec: json.RawMessage(specInterference), Seed: seed}, http.StatusAccepted)
	done3 := pollDone(t, srv, v3.ID)
	if done3.Progress.Done == 0 || done3.Progress.Cached != 0 {
		t.Fatalf("interference family progress = %+v, want computed points", done3.Progress)
	}

	stopHTTPWorkers(m, stopWorkers, &wg)
}

// apiErrorOf performs a request and decodes the error envelope.
func apiErrorOf(t *testing.T, method, url string, body string) *APIError {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: response is not an error envelope: %v", method, url, err)
	}
	e := env.Error
	e.Status = resp.StatusCode
	if e.Code == "" || e.Message == "" {
		t.Fatalf("%s %s: envelope missing code or message: %+v", method, url, e)
	}
	return &e
}

// TestErrorEnvelope drives every classified failure through the HTTP
// surface and asserts the stable (status, code) contract.
func TestErrorEnvelope(t *testing.T) {
	m := New(Options{Distributed: true, ChunkPoints: 4, LeaseTTL: time.Second})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	running := submit(t, srv,
		Request{Scenario: "paper-baseline", Budget: "analytic", Seed: 1}, http.StatusAccepted)

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"malformed body", "POST", "/api/v1/jobs", "{", http.StatusBadRequest, CodeBadRequest},
		{"unknown scenario", "POST", "/api/v1/jobs", `{"scenario":"nope"}`, http.StatusBadRequest, CodeBadRequest},
		{"invalid spec", "POST", "/api/v1/jobs", `{"spec":{"name":"x","axes":[]}}`, http.StatusBadRequest, CodeSpecInvalid},
		{"spec plus scenario", "POST", "/api/v1/jobs", `{"scenario":"paper-baseline","spec":{"name":"x","axes":[{"name":"boards","kind":"integer","min":1,"max":2}]}}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown job", "GET", "/api/v1/jobs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"unfinished records", "GET", "/api/v1/jobs/" + running.ID + "/records", "", http.StatusConflict, CodeNotDone},
		{"no store", "GET", "/api/v1/store", "", http.StatusNotFound, CodeNotFound},
		{"gone lease heartbeat", "POST", "/api/v1/workers/leases/lease-404/heartbeat", "", http.StatusGone, CodeLeaseGone},
		{"bad list limit", "GET", "/api/v1/jobs?limit=zero", "", http.StatusBadRequest, CodeBadRequest},
		{"bad list state", "GET", "/api/v1/jobs?state=purple", "", http.StatusBadRequest, CodeBadRequest},
	}
	for _, c := range cases {
		e := apiErrorOf(t, c.method, srv.URL+c.path, c.body)
		if e.Status != c.status || e.Code != c.code {
			t.Errorf("%s: got (%d, %s) %q, want (%d, %s)",
				c.name, e.Status, e.Code, e.Message, c.status, c.code)
		}
	}

	// After shutdown the daemon refuses writes with the shutdown code.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	e := apiErrorOf(t, "POST", srv.URL+"/api/v1/jobs", `{"scenario":"paper-baseline"}`)
	if e.Status != http.StatusServiceUnavailable || e.Code != CodeShutdown {
		t.Errorf("post-shutdown submit: got (%d, %s), want (503, %s)", e.Status, e.Code, CodeShutdown)
	}

	// The typed client surfaces the same envelope via errors.As.
	_, err := NewClient(srv.URL).Heartbeat("lease-404")
	if !errors.Is(err, ErrLeaseGone) {
		t.Errorf("client heartbeat of dead lease = %v, want ErrLeaseGone", err)
	}
}

// TestJobsPagination walks the jobs listing through limit/cursor pages
// and the state/kind filters. A distributed daemon with no workers
// leaves every submission pending, so the listing is cheap and stable.
func TestJobsPagination(t *testing.T) {
	m := New(Options{Distributed: true, ChunkPoints: 4, LeaseTTL: time.Second, JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		v := submit(t, srv, Request{Scenario: "paper-baseline", Budget: "analytic", Seed: uint64(i + 1)}, http.StatusAccepted)
		ids = append(ids, v.ID)
	}
	opt := submit(t, srv, Request{
		Kind: KindOptimize, Space: "embedded-box", Budget: "analytic", Seed: 1,
	}, http.StatusAccepted)

	// Page through all six jobs two at a time, in submission order.
	var walked []string
	cursor := ""
	pages := 0
	for {
		url := "/api/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page JobPage
		getJSON(t, srv, url, &page)
		for _, j := range page.Jobs {
			walked = append(walked, j.ID)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	want := append(append([]string{}, ids...), opt.ID)
	if strings.Join(walked, ",") != strings.Join(want, ",") {
		t.Fatalf("paged walk = %v, want %v", walked, want)
	}

	// Kind filter.
	var optOnly JobPage
	getJSON(t, srv, "/api/v1/jobs?kind=optimize", &optOnly)
	if len(optOnly.Jobs) != 1 || optOnly.Jobs[0].ID != opt.ID {
		t.Fatalf("kind=optimize page = %+v, want just %s", optOnly.Jobs, opt.ID)
	}

	// State filter: nothing is done on a workerless daemon.
	var doneOnly JobPage
	getJSON(t, srv, "/api/v1/jobs?state=done", &doneOnly)
	if len(doneOnly.Jobs) != 0 {
		t.Fatalf("state=done page has %d jobs, want 0", len(doneOnly.Jobs))
	}

	// A filtered walk still fills pages across non-matching jobs.
	var sweeps JobPage
	getJSON(t, srv, "/api/v1/jobs?kind=sweep&limit=4", &sweeps)
	if len(sweeps.Jobs) != 4 || sweeps.NextCursor == "" {
		t.Fatalf("kind=sweep limit=4: %d jobs, cursor %q", len(sweeps.Jobs), sweeps.NextCursor)
	}
}

// TestKnobsEndpoint asserts the spec-authoring catalog is served: every
// knob with its kind, the constraint metrics and the objectives.
func TestKnobsEndpoint(t *testing.T) {
	m := New(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var got struct {
		Knobs []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"knobs"`
		Metrics    []string `json:"metrics"`
		Objectives []string `json:"objectives"`
	}
	getJSON(t, srv, "/api/v1/knobs", &got)
	if len(got.Knobs) != len(spec.Knobs()) {
		t.Fatalf("knobs catalog has %d entries, want %d", len(got.Knobs), len(spec.Knobs()))
	}
	kinds := map[string]string{}
	for _, k := range got.Knobs {
		kinds[k.Name] = k.Kind
	}
	if kinds["traffic-pattern"] != "string" || kinds["boards"] != "integer" {
		t.Fatalf("knob kinds wrong: %v", kinds)
	}
	if len(got.Metrics) == 0 || len(got.Objectives) == 0 {
		t.Fatalf("catalog missing metrics or objectives: %+v", got)
	}
}
