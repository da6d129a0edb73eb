package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// NewHandler exposes a Manager over HTTP:
//
//	GET    /healthz                  liveness probe (reports sweep.EngineVersion
//	                                 and the result store's cache hit rate)
//	GET    /api/v1/store             result-store stats: aggregate counters plus
//	                                 one entry per shard (404 without a store)
//	GET    /api/v1/scenarios         registered scenarios with grid sizes
//	GET    /api/v1/spaces            registered search spaces with their parameters
//	POST   /api/v1/jobs              submit a job (Request JSON) -> 202 JobView
//	GET    /api/v1/jobs              all jobs in submission order
//	GET    /api/v1/jobs/{id}         one job snapshot (poll for progress)
//	DELETE /api/v1/jobs/{id}         cancel a queued or running job
//	GET    /api/v1/jobs/{id}/records completed records as NDJSON, one per line
//	GET    /api/v1/jobs/{id}/pareto  the job's Pareto-front records
//	GET    /api/v1/jobs/{id}/generations per-generation optimizer fronts as a
//	                                 live NDJSON stream (closes once the job
//	                                 is terminal; empty for sweep jobs)
//	GET    /api/v1/jobs/{id}/trace   the job's retained spans as NDJSON
//	                                 (404 when the daemon runs untraced)
//	GET    /api/v1/jobs/{id}/timeline derived phase timeline: queued/dispatch/
//	                                 evaluate/assemble durations, cache split,
//	                                 per-chunk turnarounds, span coverage
//	GET    /api/v1/fleet/stats       per-worker throughput profiles and the
//	                                 straggler baseline
//	GET    /api/v1/knobs             spec knob catalog: parameter names/kinds,
//	                                 constraint metrics, objectives
//	GET    /api/v1/openapi.json      machine-readable contract generated from
//	                                 the route table
//
// The worker tier (cmd/sweepworker) drives four more endpoints; only a
// distributed daemon has chunks to lease:
//
//	POST   /api/v1/workers/lease                 lease a chunk -> 200 Lease | 204 none within the 500ms hold
//	POST   /api/v1/workers/leases/{id}/heartbeat extend the lease -> 200 | 410 gone
//	POST   /api/v1/workers/leases/{id}/complete  post chunk records -> 200 | 410 | 422
//	POST   /api/v1/workers/leases/{id}/fail      report an unevaluable chunk -> 200 | 410
//
// Observability rides on every route: each handler is registered
// through instrument, which wraps it in obs.HTTPMetrics middleware
// (per-route latency histogram, status-class counters, in-flight gauge,
// X-Request-ID propagation) and records the route in the table behind
// /api/v1/openapi.json. The whole registry — HTTP, job, lease, worker
// and store families — is served at:
//
//	GET    /metrics                  Prometheus text exposition (0.0.4)
//
// Every non-2xx response is the unified error envelope
// {"error":{"code":"...","message":"..."}}, its status and stable
// machine-readable code read from errorTable (errors.go). docs/api.md
// is the full reference.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	hm := obs.NewHTTPMetrics(m.Metrics(), m.logger())
	rt := &routeTable{}
	instrument(mux, hm, rt, "GET /api/v1/openapi.json", func(w http.ResponseWriter, r *http.Request) {
		// rt is fully populated by the time any request arrives; the doc
		// is rebuilt per request (cheap, rare) so it can never go stale
		// against the table.
		writeJSON(w, http.StatusOK, openAPIDoc(rt))
	})
	instrument(mux, hm, rt, "GET /metrics", m.Metrics().Handler().ServeHTTP)
	instrument(mux, hm, rt, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The engine version lets optimizer clients and worker binaries
		// preflight-check compatibility before submitting or leasing:
		// records are only comparable between equal engine versions.
		build := obs.Build()
		payload := map[string]any{
			"status":         "ok",
			"engine":         sweep.EngineVersion,
			"uptime_seconds": m.Uptime().Seconds(),
			"go_version":     build.GoVersion,
			"revision":       build.Revision,
		}
		// The cache hit rate is the one store number worth watching from
		// a probe: a warm daemon serving mostly repeats should sit near
		// 1.0, and a sudden drop means the store was lost or the keying
		// inputs changed.
		if total, _, ok := m.StoreStats(); ok {
			payload["cache_hit_rate"] = total.HitRate()
		}
		writeJSON(w, http.StatusOK, payload)
	})
	instrument(mux, hm, rt, "GET /api/v1/store", func(w http.ResponseWriter, r *http.Request) {
		total, shards, ok := m.StoreStats()
		if !ok {
			writeAPIError(w, ErrNoStore)
			return
		}
		if shards == nil {
			shards = []store.Stats{}
		}
		writeJSON(w, http.StatusOK, storeView{Store: total, Shards: shards})
	})
	instrument(mux, hm, rt, "GET /api/v1/scenarios", handleScenarios)
	instrument(mux, hm, rt, "GET /api/v1/spaces", handleSpaces)
	instrument(mux, hm, rt, "GET /api/v1/knobs", handleKnobs)
	instrument(mux, hm, rt, "POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Strict like the inline spec: a misspelt field is an error,
		// not a silently defaulted one.
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeAPIError(w, fmt.Errorf("%w: invalid request body: %w", ErrBadRequest, err))
			return
		}
		v, err := m.Submit(req)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		// Tie the job id to the request id, so an operator holding either
		// end of a submission can find the other in the logs.
		m.logger().Info("job accepted",
			"job_id", v.ID, "request_id", obs.RequestID(r.Context()))
		writeJSON(w, http.StatusAccepted, v)
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		page, err := listQueryOf(r)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, m.ListPage(page))
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	instrument(mux, hm, rt, "DELETE /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			writeAPIError(w, err)
			return
		}
		v, err := m.Get(id)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}/records", func(w http.ResponseWriter, r *http.Request) {
		// The read holds the job's record references to the end, so an
		// eviction mid-stream cannot cut the stream short.
		rd, err := m.openRecords(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		defer rd.close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		// Only done jobs have a result, so every record already exists:
		// per-line flushes would buy the reader nothing. Lines go into
		// one buffer, written and flushed each time it passes
		// recordBatchBytes and once at the end.
		buf := make([]byte, 0, recordBatchBytes+2048)
		for _, rec := range rd.all() {
			buf, _ = sweep.AppendRecordJSON(buf, rec)
			buf = append(buf, '\n')
			if len(buf) >= recordBatchBytes {
				if !writeBatch(w, flusher, buf) {
					return // client went away mid-stream
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			writeBatch(w, flusher, buf)
		}
	})
	instrument(mux, hm, rt, "POST /api/v1/workers/lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil || req.Worker == "" {
			writeAPIError(w, fmt.Errorf("%w: lease request needs a worker name", ErrBadRequest))
			return
		}
		l, ok, err := m.lease(r.Context(), req.Worker)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})
	instrument(mux, hm, rt, "POST /api/v1/workers/leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		ttl, err := m.Heartbeat(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]float64{"ttl_seconds": ttl.Seconds()})
	})
	instrument(mux, hm, rt, "POST /api/v1/workers/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Records []sweep.Record `json:"records"`
			// Spans are the worker-side trace of this chunk, recorded
			// into the daemon's collector alongside its own chunk span.
			Spans []obs.SpanRecord `json:"spans"`
		}
		// Legitimate completion bodies are one chunk of records (KBs to a
		// few MBs); the cap keeps a buggy or rogue client from feeding
		// the decoder an unbounded allocation.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
			writeAPIError(w, fmt.Errorf("%w: invalid completion body: %w", ErrBadRequest, err))
			return
		}
		if err := m.CompleteTraced(r.PathValue("id"), req.Records, req.Spans); err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	instrument(mux, hm, rt, "POST /api/v1/workers/leases/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeAPIError(w, fmt.Errorf("%w: invalid failure body: %w", ErrBadRequest, err))
			return
		}
		if err := m.FailLease(r.PathValue("id"), req.Error); err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}/pareto", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// The view first: if the job is evicted between the two
		// lookups, the records read fails loudly instead of the response
		// silently losing its objectives.
		v, err := m.Get(id)
		var rd *jobRecords
		if err == nil {
			rd, err = m.openRecords(id)
		}
		if err != nil {
			writeAPIError(w, err)
			return
		}
		defer rd.close()
		front := rd.front()
		payload := map[string]any{
			"scenario":   rd.res.Scenario,
			"objectives": v.Objectives,
			"seed":       rd.res.Seed,
			"budget":     rd.res.Budget,
			"front":      front,
		}
		if v.Space != "" {
			payload["space"] = v.Space
		}
		writeJSON(w, http.StatusOK, payload)
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}/generations", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sent := 0
		gens, terminal, changed, err := m.Generations(id, sent)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		for {
			for _, g := range gens {
				if err := enc.Encode(g); err != nil {
					return // client went away mid-stream
				}
			}
			sent += len(gens)
			if flusher != nil {
				flusher.Flush()
			}
			if terminal {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-changed:
			}
			if gens, terminal, changed, err = m.Generations(id, sent); err != nil {
				return // job evicted mid-stream; nothing more to say
			}
		}
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		spans, err := m.JobTrace(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		// NDJSON, one span per line: greppable raw, and a trace can be
		// tailed into jq or a flamegraph converter without holding the
		// whole payload.
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return // client went away mid-stream
			}
		}
	})
	instrument(mux, hm, rt, "GET /api/v1/jobs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		tl, err := m.JobTimeline(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tl)
	})
	instrument(mux, hm, rt, "GET /api/v1/fleet/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.FleetStats())
	})
	return mux
}

// instrument is the single chokepoint where routes meet the mux: every
// handler is wrapped in the metrics middleware under its route pattern
// before registration, so no endpoint can silently escape the per-route
// histograms and counters. tools/servicelint enforces the chokepoint
// statically — a direct mux.Handle/HandleFunc call anywhere else in this
// file fails CI.
// Each pattern is also recorded in the route table, which is what
// GET /api/v1/openapi.json renders — reaching the mux and entering the
// machine-readable contract are the same act.
func instrument(mux *http.ServeMux, hm *obs.HTTPMetrics, rt *routeTable, pattern string, fn http.HandlerFunc) {
	rt.add(pattern)
	mux.Handle(pattern, hm.Wrap(pattern, fn))
}

// listQueryOf parses the GET /api/v1/jobs query string. Unknown state
// or kind values are rejected (ErrBadRequest) rather than silently
// matching nothing, so a typo reads as a 400 instead of an empty fleet.
func listQueryOf(r *http.Request) (ListQuery, error) {
	q := r.URL.Query()
	lq := ListQuery{
		State:  State(q.Get("state")),
		Kind:   q.Get("kind"),
		Cursor: q.Get("cursor"),
	}
	switch lq.State {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return ListQuery{}, fmt.Errorf("%w: unknown state %q", ErrBadRequest, lq.State)
	}
	switch lq.Kind {
	case "", KindSweep, KindOptimize:
	default:
		return ListQuery{}, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, lq.Kind)
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return ListQuery{}, fmt.Errorf("%w: limit must be a positive integer, got %q", ErrBadRequest, raw)
		}
		lq.Limit = n
	}
	return lq, nil
}

// recordBatchBytes is the records stream's write size: big enough that
// a warm 1000-record job costs a handful of flushes instead of one per
// ~500-byte line, small enough that a reader sees bytes early.
const recordBatchBytes = 32 << 10

// writeBatch writes one records-stream batch and flushes it, reporting
// whether the client is still there.
func writeBatch(w http.ResponseWriter, flusher http.Flusher, batch []byte) bool {
	if _, err := w.Write(batch); err != nil {
		return false
	}
	if flusher != nil {
		flusher.Flush()
	}
	return true
}

// storeView is the GET /api/v1/store payload: the whole store's
// counters plus the per-shard breakdown (one entry, shard order; a
// single-shard store lists exactly its own counters).
type storeView struct {
	Store  store.Stats   `json:"store"`
	Shards []store.Stats `json:"shards"`
}

// scenarioInfo is one row of the scenario listing.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Points      int    `json:"points"`
}

func handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, name := range sweep.Names() {
		sc, err := sweep.Get(name)
		if err != nil {
			continue
		}
		out = append(out, scenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Points:      len(sc.Points()),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// spaceInfo is one row of the search-space listing.
type spaceInfo struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	Params      []search.Param `json:"params"`
}

// knobInfo is one row of the spec knob catalog: a parameter name a spec
// may sweep or constrain, with the kind its axis must declare.
type knobInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// handleKnobs serves the vocabulary a spec author writes against:
// every base/axis parameter with its kind, the metrics constraint
// expressions may reference, and the selectable optimizer objectives.
// Together with /api/v1/openapi.json this makes specs discoverable
// end to end — shape from the contract, names from the catalog.
func handleKnobs(w http.ResponseWriter, r *http.Request) {
	names := spec.Knobs()
	knobs := make([]knobInfo, 0, len(names))
	for _, name := range names {
		kind, err := spec.KnobKind(name)
		if err != nil {
			continue
		}
		knobs = append(knobs, knobInfo{Name: name, Kind: kind})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"knobs":      knobs,
		"metrics":    sweep.MetricNames(),
		"objectives": sweep.ObjectiveNames(),
	})
}

func handleSpaces(w http.ResponseWriter, r *http.Request) {
	var out []spaceInfo
	for _, name := range search.Names() {
		sp, err := search.Get(name)
		if err != nil {
			continue
		}
		out = append(out, spaceInfo{
			Name:        sp.Name,
			Description: sp.Description,
			Params:      sp.Params,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// writeJSON writes v as indented JSON under status. The body is
// encoded before the header is sent, so a value that cannot be encoded
// answers a 500 error envelope instead of an empty 2xx.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeAPIError(w, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}
