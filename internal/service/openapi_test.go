package service

import (
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registeredPatterns scans http.go for instrument(...) registrations —
// the static truth the drift test compares every other surface against.
// Syntactic on purpose: a route cannot reach the mux without an
// instrument call (tools/servicelint), so the source scan and the served
// contract must always agree.
func registeredPatterns(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("http.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`instrument\(mux, hm, rt, "([^"]+)"`)
	var out []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		out = append(out, m[1])
	}
	if len(out) < 10 {
		t.Fatalf("found only %d instrument registrations in http.go — scan regex out of date?", len(out))
	}
	sort.Strings(out)
	return out
}

// TestOpenAPIMatchesRoutes holds the three descriptions of the API
// surface to one truth: the instrument calls in http.go (static), the
// served /api/v1/openapi.json document (runtime), and the routeDocs
// summary table. Add a route without extending the contract and this
// fails.
func TestOpenAPIMatchesRoutes(t *testing.T) {
	m := New(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	var doc struct {
		OpenAPI string                    `json:"openapi"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	getJSON(t, srv, "/api/v1/openapi.json", &doc)
	if !strings.HasPrefix(doc.OpenAPI, "3.") {
		t.Fatalf("openapi version = %q, want 3.x", doc.OpenAPI)
	}

	var served []string
	for path, item := range doc.Paths {
		for method := range item {
			served = append(served, strings.ToUpper(method)+" "+path)
		}
	}
	sort.Strings(served)

	want := registeredPatterns(t)
	if strings.Join(served, "\n") != strings.Join(want, "\n") {
		t.Errorf("openapi.json drifted from http.go registrations:\nserved:\n  %s\nregistered:\n  %s",
			strings.Join(served, "\n  "), strings.Join(want, "\n  "))
	}

	for _, pattern := range want {
		if routeDocs[pattern] == "" {
			t.Errorf("route %q has no summary in routeDocs", pattern)
		}
	}
	for pattern := range routeDocs {
		if i := sort.SearchStrings(want, pattern); i == len(want) || want[i] != pattern {
			t.Errorf("routeDocs documents %q but http.go never registers it", pattern)
		}
	}
}

// TestDocsMentionEveryRoute keeps the prose reference honest: every
// registered route pattern must appear verbatim in docs/api.md.
func TestDocsMentionEveryRoute(t *testing.T) {
	md, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(md)
	for _, pattern := range registeredPatterns(t) {
		if !strings.Contains(text, pattern) {
			t.Errorf("docs/api.md does not mention route %q", pattern)
		}
	}
}
