package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintFindsBypassingRegistrations(t *testing.T) {
	dir := t.TempDir()
	// The blessed shape: registrations only inside instrument, and the
	// helper routes the handler through the middleware's Wrap.
	write(t, filepath.Join(dir, "good.go"), `package svc

import "net/http"

type mw struct{}

func (mw) Wrap(pattern string, fn http.HandlerFunc) http.Handler { return fn }

func instrument(mux *http.ServeMux, hm mw, pattern string, fn http.HandlerFunc) {
	mux.Handle(pattern, hm.Wrap(pattern, fn))
}

func handlers() *http.ServeMux {
	mux := http.NewServeMux()
	instrument(mux, mw{}, "GET /x", func(w http.ResponseWriter, r *http.Request) {})
	return mux
}
`)
	// Two bypasses: a direct HandleFunc, and a Handle through an alias —
	// the syntactic check catches both, and reports the line.
	write(t, filepath.Join(dir, "bad.go"), `package svc

import "net/http"

func sneaky() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /hidden", func(w http.ResponseWriter, r *http.Request) {})
	alias := mux
	alias.Handle("GET /aliased", http.NotFoundHandler())
	return mux
}
`)
	// Tests may wire throwaway muxes freely.
	write(t, filepath.Join(dir, "bad_test.go"), `package svc

import "net/http"

func testMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scratch", func(w http.ResponseWriter, r *http.Request) {})
	return mux
}
`)

	violations, err := lint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want exactly the two bypasses in bad.go", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v, "bad.go") {
			t.Fatalf("violation %q not attributed to bad.go", v)
		}
	}
}

func TestLintFindsHollowedOutHelper(t *testing.T) {
	dir := t.TempDir()
	// The chokepoint exists but registers the raw handler: every route
	// would silently lose the middleware, so the helper itself fails.
	write(t, filepath.Join(dir, "hollow.go"), `package svc

import "net/http"

func instrument(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	mux.Handle(pattern, fn)
}
`)

	violations, err := lint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "Wrap") {
		t.Fatalf("violations = %v, want one un-wrapped registration inside instrument", violations)
	}
}

func TestLintFindsUnenvelopedErrors(t *testing.T) {
	dir := t.TempDir()
	// The blessed shape: the envelope helper and the transport it ends
	// in may write any status; handlers write only 2xx directly.
	write(t, filepath.Join(dir, "good.go"), `package svc

import (
	"encoding/json"
	"net/http"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]string{"code": code, "message": msg})
}

func ok(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusCreated, "x")
	w.WriteHeader(204)
	writeAPIError(w, http.StatusNotFound, "not_found", "no such job")
}
`)
	// Three bypasses: a non-2xx selector, a non-2xx literal and a
	// runtime status, each written straight to the response.
	write(t, filepath.Join(dir, "bad.go"), `package svc

import "net/http"

func sneaky(w http.ResponseWriter, r *http.Request, code int) {
	writeJSON(w, http.StatusBadRequest, "raw")
	w.WriteHeader(500)
	rw := w
	rw.WriteHeader(code)
}
`)
	write(t, filepath.Join(dir, "bad_test.go"), `package svc

import "net/http"

func testHandler(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) }
`)

	violations, err := lint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 3 {
		t.Fatalf("violations = %v, want exactly the three raw statuses in bad.go", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v, "bad.go") || !strings.Contains(v, "error envelope") {
			t.Fatalf("violation %q not an envelope bypass attributed to bad.go", v)
		}
	}
}

func TestLintCleanOnThisModule(t *testing.T) {
	// The repository's own invariants: every internal/service route is
	// registered through instrument, hence wrapped by the middleware,
	// and every non-2xx response goes through the envelope helper.
	violations, err := lint(filepath.Join("..", "..", "internal", "service"))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("service invariants broken: %v", violations)
	}
}
