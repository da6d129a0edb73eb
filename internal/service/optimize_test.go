package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/sweep/store"
)

// optimizeReq is the small, fast optimization the service tests run:
// 3 generations of 8 over the 2-parameter butler-vs-steered space at
// analytic budget — 24 sub-millisecond evaluations.
func optimizeReq(seed uint64) Request {
	return Request{
		Kind:        KindOptimize,
		Space:       "butler-vs-steered",
		Budget:      "analytic",
		Seed:        seed,
		Generations: 3,
		Population:  8,
	}
}

func TestOptimizeJobLifecycle(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())

	v, err := m.Submit(optimizeReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindOptimize || v.Space != "butler-vs-steered" ||
		v.Generations != 3 || v.Population != 8 {
		t.Fatalf("submitted view = %+v", v)
	}
	if len(v.Objectives) != 3 {
		t.Fatalf("default objectives = %v", v.Objectives)
	}
	if v.Progress.Total != 24 {
		t.Fatalf("total = %d, want generations*population = 24", v.Progress.Total)
	}

	done := waitState(t, m, v.ID, StateDone)
	if done.Progress.Done != 24 || done.Progress.Pending != 0 {
		t.Fatalf("completed progress = %+v", done.Progress)
	}

	res, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "optimize/butler-vs-steered" || len(res.Records) != 24 {
		t.Fatalf("result scenario %q with %d records", res.Scenario, len(res.Records))
	}
	if len(res.ParetoIndices) == 0 {
		t.Fatal("empty final front")
	}
	for _, i := range res.ParetoIndices {
		if !res.Records[i].Pareto {
			t.Fatalf("front record %d not marked Pareto", i)
		}
	}

	gens, terminal, _, err := m.Generations(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !terminal || len(gens) != 3 {
		t.Fatalf("generations = %d (terminal %v), want 3 (true)", len(gens), terminal)
	}
	for i, g := range gens {
		if g.Gen != i || g.Evaluated != 8 || len(g.Front) == 0 {
			t.Fatalf("generation %d summary = %+v", i, g)
		}
	}
	// Offset reads return the tail only.
	tail, _, _, err := m.Generations(v.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Gen != 2 {
		t.Fatalf("offset read = %+v", tail)
	}
}

func TestSubmitValidatesOptimize(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())

	for _, tc := range []struct {
		name   string
		mutate func(*Request)
	}{
		{"unknown space", func(r *Request) { r.Space = "warp-field" }},
		{"unknown objective", func(r *Request) { r.Objectives = []string{"tx-power", "vibes"} }},
		{"single objective", func(r *Request) { r.Objectives = []string{"tx-power"} }},
		{"odd population", func(r *Request) { r.Population = 7 }},
		{"negative generations", func(r *Request) { r.Generations = -2 }},
		{"unknown kind", func(r *Request) { r.Kind = "gradient-descent" }},
	} {
		req := optimizeReq(1)
		tc.mutate(&req)
		if _, err := m.Submit(req); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := m.Submit(Request{Kind: "gradient-descent"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown kind error = %v, want ErrBadRequest", err)
	}
	// A sweep submission without optimize fields still works.
	if _, err := m.Submit(Request{Scenario: "paper-baseline"}); err != nil {
		t.Errorf("plain sweep submission failed: %v", err)
	}
}

// TestSubmitRejectsOversizedOptimize: an optimization asking for more
// than search.MaxEvaluations points is a bad request, at Submit and
// over HTTP, before anything is allocated for it — a population of
// 2^30 would otherwise build 24 GB of genome headers in generation 0,
// and Generations*Population could overflow the progress total.
func TestSubmitRejectsOversizedOptimize(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	for _, shape := range []struct{ gens, pop int }{{0, 1 << 30}, {1 << 40, 4}} {
		req := Request{Kind: KindOptimize, Space: "paper-baseline", Generations: shape.gens, Population: shape.pop}
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("generations %d, population %d: error %v, want ErrBadRequest", shape.gens, shape.pop, err)
		}
	}

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"optimize","space":"paper-baseline","population":1073741824}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("oversized optimize over HTTP = %d %q, want 400 bad_request", resp.StatusCode, env.Error.Code)
	}
	if n := len(m.ListPage(ListQuery{}).Jobs); n != 0 {
		t.Fatalf("%d jobs registered after rejected submissions", n)
	}
}

// TestOptimizeDistributedMatchesInProcess is the fleet half of the
// acceptance bar: the same optimization answers byte-identically
// whether generations are evaluated in-process or chunked over HTTP
// workers (with a shared store in the loop).
func TestOptimizeDistributedMatchesInProcess(t *testing.T) {
	inproc := New(Options{JobWorkers: 1})
	defer inproc.Shutdown(context.Background())
	v1, err := inproc.Submit(optimizeReq(11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, inproc, v1.ID, StateDone)
	res1, err := inproc.Result(v1.ID)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dist := New(Options{
		JobWorkers:  1,
		Distributed: true,
		ChunkPoints: 3,
		LeaseTTL:    time.Minute,
		Cache:       st,
	})
	defer dist.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(dist))
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

	v2 := submit(t, srv, optimizeReq(11), http.StatusAccepted)
	pollDone(t, srv, v2.ID)
	res2, err := dist.Result(v2.ID)
	if err != nil {
		t.Fatal(err)
	}

	j1, _ := json.Marshal(res1)
	j2, _ := json.Marshal(res2)
	if string(j1) != string(j2) {
		t.Fatalf("distributed optimize differs from in-process:\nin-proc: %s\nfleet:   %s", j1, j2)
	}

	// Per-generation summaries match too.
	g1, _, _, err := inproc.Generations(v1.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := dist.Generations(v2.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	jg1, _ := json.Marshal(g1)
	jg2, _ := json.Marshal(g2)
	if string(jg1) != string(jg2) {
		t.Fatalf("generation summaries differ:\nin-proc: %s\nfleet:   %s", jg1, jg2)
	}

	// Warm resubmission: every individual is already in the store, so
	// the job completes without a single new evaluation (or lease).
	v3 := submit(t, srv, optimizeReq(11), http.StatusAccepted)
	done := pollDone(t, srv, v3.ID)
	if done.Progress.Cached != done.Progress.Total {
		t.Fatalf("warm rerun cached %d of %d points", done.Progress.Cached, done.Progress.Total)
	}
	res3, err := dist.Result(v3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ComputedPoints != 0 {
		t.Fatalf("warm rerun computed %d points, want 0", res3.ComputedPoints)
	}
	// Records and front are byte-identical; only the cached/computed
	// accounting may differ between the cold and warm run.
	jr2, _ := json.Marshal(res2.Records)
	jr3, _ := json.Marshal(res3.Records)
	if string(jr3) != string(jr2) {
		t.Fatal("warm rerun records differ from cold distributed run")
	}
	jp2, _ := json.Marshal(res2.ParetoIndices)
	jp3, _ := json.Marshal(res3.ParetoIndices)
	if string(jp3) != string(jp2) {
		t.Fatal("warm rerun front differs from cold distributed run")
	}

	stopHTTPWorkers(dist, stopWorkers, &wg)
}

// TestOptimizeHTTPSurface drives the optimizer through the public API:
// space catalog, submission, the live generations NDJSON stream, and
// the Pareto endpoint's objective annotations.
func TestOptimizeHTTPSurface(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var spaces []spaceInfo
	getJSON(t, srv, "/api/v1/spaces", &spaces)
	found := false
	for _, sp := range spaces {
		if sp.Name == "full-design" && len(sp.Params) >= 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("space listing = %+v", spaces)
	}

	v := submit(t, srv, optimizeReq(9), http.StatusAccepted)
	pollDone(t, srv, v.ID)

	// The generations stream replays every summary then closes, since
	// the job is already terminal.
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/generations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("generations content-type = %q", ct)
	}
	var gens []search.Generation
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var g search.Generation
		if err := json.Unmarshal(scan.Bytes(), &g); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scan.Text(), err)
		}
		gens = append(gens, g)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("streamed %d generations, want 3", len(gens))
	}
	for i, g := range gens {
		if g.Gen != i {
			t.Fatalf("stream out of order: %+v", gens)
		}
	}

	var pareto struct {
		Scenario   string            `json:"scenario"`
		Space      string            `json:"space"`
		Objectives []string          `json:"objectives"`
		Front      []json.RawMessage `json:"front"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+v.ID+"/pareto", &pareto)
	if pareto.Scenario != "optimize/butler-vs-steered" || pareto.Space != "butler-vs-steered" {
		t.Fatalf("pareto payload = %+v", pareto)
	}
	if len(pareto.Objectives) != 3 || len(pareto.Front) == 0 {
		t.Fatalf("pareto objectives/front = %v / %d", pareto.Objectives, len(pareto.Front))
	}

	// Unknown job: 404, not a hanging stream.
	resp2, err := http.Get(srv.URL + "/api/v1/jobs/job-999999/generations")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("generations of unknown job = %d, want 404", resp2.StatusCode)
	}
}

// TestOptimizeNonFiniteObjective optimizes over the power-constrained
// example, whose single-module stack has no loaded NoC channel, so
// every record's noc_saturation is +Inf. Best omits that objective, the
// generations stream delivers every generation, and /pareto and
// /records answer complete 200s carrying the spelled value.
func TestOptimizeNonFiniteObjective(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/power-constrained-stack.json")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	v := submit(t, srv, Request{Kind: KindOptimize, Spec: doc, Seed: 4, Generations: 3, Population: 8}, http.StatusAccepted)
	pollDone(t, srv, v.ID)

	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/generations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gens []search.Generation
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var g search.Generation
		if err := json.Unmarshal(scan.Bytes(), &g); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scan.Text(), err)
		}
		gens = append(gens, g)
	}
	if err := scan.Err(); err != nil || resp.StatusCode != http.StatusOK || len(gens) != 3 {
		t.Fatalf("generations: status %d, %d lines, err %v; want 200 and 3", resp.StatusCode, len(gens), err)
	}
	for _, g := range gens {
		if len(g.Best) != 1 || g.Best[0].Objective != "tx-power" {
			t.Fatalf("generation %d best = %+v, want tx-power only", g.Gen, g.Best)
		}
		if len(g.Front) == 0 || !math.IsInf(g.Front[0].NoCSaturation, 1) {
			t.Fatalf("generation %d front = %+v, want +Inf noc_saturation", g.Gen, g.Front)
		}
	}

	var pareto struct {
		Front []json.RawMessage `json:"front"`
	}
	getJSON(t, srv, "/api/v1/jobs/"+v.ID+"/pareto", &pareto)
	var first bytes.Buffer
	if len(pareto.Front) == 0 || json.Compact(&first, pareto.Front[0]) != nil ||
		!strings.Contains(first.String(), `"noc_saturation":"+Inf"`) {
		t.Fatalf("pareto front = %s", pareto.Front)
	}
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if err != nil || resp.StatusCode != http.StatusOK || len(lines) != 24 {
		t.Fatalf("records: status %d, %d lines, err %v; want 200 and 24", resp.StatusCode, len(lines), err)
	}
	for _, l := range lines {
		if !strings.Contains(l, `"noc_saturation":"+Inf"`) {
			t.Fatalf("record line %s lacks the +Inf spelling", l)
		}
	}
}

// TestOptimizeGenerationsStreamLive follows a running optimization and
// sees summaries arrive before the job is done.
func TestOptimizeGenerationsStreamLive(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// A bigger budgetless run so the stream demonstrably overlaps it.
	req := optimizeReq(3)
	req.Generations = 6
	req.Population = 16
	v := submit(t, srv, req, http.StatusAccepted)

	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/generations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	count := 0
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		count++
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("live stream delivered %d generations, want 6", count)
	}
	// The stream only closes once the job is terminal.
	jv, err := m.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !jv.State.Terminal() {
		t.Fatalf("stream closed while job still %s", jv.State)
	}
}

func TestOptimizeJobCancellation(t *testing.T) {
	m := New(Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())

	// A long smoke-budget optimization gives cancellation a window.
	req := optimizeReq(4)
	req.Budget = "smoke"
	req.Generations = 50
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	if err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		jv, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.State.Terminal() {
			if jv.State != StateCancelled {
				t.Fatalf("cancelled job ended %s (%s)", jv.State, jv.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled optimization never terminated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := m.Result(v.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("cancelled job result error = %v, want ErrNotDone", err)
	}
}
