package service

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

// routeTable collects every pattern that passes through instrument, in
// registration order. It is the single source of truth behind
// GET /api/v1/openapi.json: a route cannot reach the mux without also
// entering the machine-readable contract, and the drift test in
// openapi_test.go holds docs/api.md to the same table.
type routeTable struct {
	patterns []string
}

func (rt *routeTable) add(pattern string) { rt.patterns = append(rt.patterns, pattern) }

// routeDocs maps each route pattern to its one-line summary in the
// OpenAPI document. A registered pattern missing here still appears in
// the doc (with an empty summary); the drift test flags it so the docs
// keep pace with the surface.
var routeDocs = map[string]string{
	"GET /metrics":                               "Prometheus text exposition of every metric family.",
	"GET /healthz":                               "Liveness probe with engine version, uptime and cache hit rate.",
	"GET /api/v1/openapi.json":                   "This machine-readable API contract.",
	"GET /api/v1/store":                          "Result-store counters, aggregate and per shard.",
	"GET /api/v1/scenarios":                      "Registered sweep scenarios with grid sizes.",
	"GET /api/v1/spaces":                         "Registered search spaces with their parameters.",
	"GET /api/v1/knobs":                          "Spec knob catalog: every base/axis parameter name with its kind, plus constraint metrics and objectives.",
	"POST /api/v1/jobs":                          "Submit a job: a registered scenario/space by name, or an inline declarative spec.",
	"GET /api/v1/jobs":                           "List jobs in submission order, filtered and paginated (limit, cursor, state, kind).",
	"GET /api/v1/jobs/{id}":                      "One job snapshot; poll for progress.",
	"DELETE /api/v1/jobs/{id}":                   "Cancel a queued or running job.",
	"GET /api/v1/jobs/{id}/records":              "Completed records as NDJSON, one per line; NaN and infinite floats are the strings \"NaN\", \"+Inf\" and \"-Inf\".",
	"GET /api/v1/jobs/{id}/pareto":               "The job's Pareto-front records, non-finite floats spelled as in /records.",
	"GET /api/v1/jobs/{id}/generations":          "Per-generation optimizer fronts as a live NDJSON stream.",
	"GET /api/v1/jobs/{id}/trace":                "The job's retained trace spans as NDJSON.",
	"GET /api/v1/jobs/{id}/timeline":             "Derived phase timeline with per-chunk turnarounds.",
	"GET /api/v1/fleet/stats":                    "Per-worker throughput profiles and the straggler baseline.",
	"POST /api/v1/workers/lease":                 "Lease one chunk of distributed work.",
	"POST /api/v1/workers/leases/{id}/heartbeat": "Extend a lease before its TTL expires.",
	"POST /api/v1/workers/leases/{id}/complete":  "Post a leased chunk's evaluated records, non-finite floats spelled as in /records.",
	"POST /api/v1/workers/leases/{id}/fail":      "Report an unevaluable chunk, failing its job.",
}

// openAPIDoc renders a minimal OpenAPI 3.0 document from the collected
// route table: one path item per pattern, the error envelope declared
// once as the default response of every operation. Go 1.22 mux wildcards
// ({id}) are already OpenAPI path-parameter syntax, so patterns map
// verbatim.
func openAPIDoc(rt *routeTable) map[string]any {
	paths := map[string]any{}
	for _, pattern := range rt.patterns {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			continue
		}
		op := map[string]any{
			"summary": routeDocs[pattern],
			"responses": map[string]any{
				"default": map[string]any{
					"description": "Error envelope",
					"content": map[string]any{
						"application/json": map[string]any{
							"schema": map[string]any{"$ref": "#/components/schemas/Error"},
						},
					},
				},
			},
		}
		var params []any
		for _, seg := range strings.Split(path, "/") {
			if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
				params = append(params, map[string]any{
					"name":     strings.Trim(seg, "{}"),
					"in":       "path",
					"required": true,
					"schema":   map[string]any{"type": "string"},
				})
			}
		}
		if path == "/api/v1/jobs" && method == "GET" {
			for _, q := range []string{"limit", "cursor", "state", "kind"} {
				params = append(params, map[string]any{
					"name":   q,
					"in":     "query",
					"schema": map[string]any{"type": "string"},
				})
			}
		}
		if len(params) > 0 {
			op["parameters"] = params
		}
		item, _ := paths[path].(map[string]any)
		if item == nil {
			item = map[string]any{}
			paths[path] = item
		}
		item[strings.ToLower(method)] = op
	}
	var codes []string
	for _, r := range errorTable {
		codes = append(codes, r.code)
	}
	slices.Sort(codes)
	codesAny := []any{}
	for _, c := range slices.Compact(codes) {
		codesAny = append(codesAny, c)
	}
	return map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "sweepd API",
			"version":     "v1",
			"description": "Job service over the wireless-interconnect design-space engine (engine version " + strconv.Itoa(sweep.EngineVersion) + "). Full prose reference: docs/api.md.",
		},
		"paths": paths,
		"components": map[string]any{
			"schemas": map[string]any{
				"Error": map[string]any{
					"type":        "object",
					"description": "Unified error envelope carried by every non-2xx response.",
					"properties": map[string]any{
						"error": map[string]any{
							"type":     "object",
							"required": []any{"code", "message"},
							"properties": map[string]any{
								"code":    map[string]any{"type": "string", "enum": codesAny},
								"message": map[string]any{"type": "string"},
							},
						},
					},
				},
			},
		},
	}
}
