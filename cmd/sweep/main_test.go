package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sweep"
)

// TestRunUnknownScenarioListsCatalog: mistyping -scenario must fail
// with every registered scenario named, so the user can correct the
// invocation without a second round trip through 'sweep list'.
func TestRunUnknownScenarioListsCatalog(t *testing.T) {
	err := run([]string{"-scenario", "no-such-scenario"})
	if err == nil {
		t.Fatal("run with unknown scenario succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-scenario"`) {
		t.Errorf("error does not echo the bad name: %s", msg)
	}
	for _, name := range sweep.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list known scenario %q: %s", name, msg)
		}
	}
}

func TestRunMissingScenarioFlag(t *testing.T) {
	err := run(nil)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("missing -scenario error = %v", err)
	}
}

// TestOptimizeUnknownSpaceListsCatalog mirrors the run-command
// contract for the optimizer: a mistyped -space names every registered
// space in the error.
func TestOptimizeUnknownSpaceListsCatalog(t *testing.T) {
	err := optimize([]string{"-space", "no-such-space"})
	if err == nil {
		t.Fatal("optimize with unknown space succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-space"`) {
		t.Errorf("error does not echo the bad name: %s", msg)
	}
	for _, name := range search.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list known space %q: %s", name, msg)
		}
	}
}

func TestOptimizeMissingSpaceFlag(t *testing.T) {
	err := optimize(nil)
	if err == nil || !strings.Contains(err.Error(), "-space") {
		t.Fatalf("missing -space error = %v", err)
	}
}

func TestOptimizeBadObjectives(t *testing.T) {
	err := optimize([]string{"-space", "butler-vs-steered", "-objectives", "tx-power,vibes"})
	if err == nil || !strings.Contains(err.Error(), "vibes") {
		t.Fatalf("bad objectives error = %v", err)
	}
}

// TestOptimizeWritesOutputs runs a tiny optimization end to end and
// checks both emitters: the JSON result parses back with the right
// shape, and the CSV has one row per evaluated individual.
func TestOptimizeWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	outJSON := filepath.Join(dir, "result.json")
	outCSV := filepath.Join(dir, "records.csv")
	err := optimize([]string{
		"-space", "butler-vs-steered",
		"-generations", "2", "-population", "4",
		"-seed", "2",
		"-out", outJSON, "-csv", outCSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	var res search.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Space != "butler-vs-steered" || len(res.Records) != 8 || len(res.FrontIndices) == 0 {
		t.Fatalf("result = space %q, %d records, front %d", res.Space, len(res.Records), len(res.FrontIndices))
	}
	csvRaw, err := os.ReadFile(outCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("CSV has %d lines, want header + 8 rows", len(lines))
	}
}

// TestRunSmokeSpecLocalMatchesFleet is the Monte-Carlo twin of
// TestRunSpecLocalMatchesDaemon: a smoke spec whose two codes and one
// stack are shared across its points runs locally and through a
// distributed sweepd whose two HTTP workers split it into chunks that
// cut across those sharings. Each chunk simulates its sub-models on
// its own, so the records agree only if every sub-model seeds from the
// job seed and its content, never from a point or a chunk.
func TestRunSmokeSpecLocalMatchesFleet(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	doc := `{"name": "cli-vs-fleet", "axes": [
		{"name": "latency-budget-bits", "kind": "enum", "values": [100, 150]},
		{"name": "boards", "kind": "integer", "min": 2, "max": 3}], "budget": "smoke"}`
	if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m := service.New(service.Options{JobWorkers: 1, Distributed: true, ChunkPoints: 3, LeaseTTL: time.Minute})
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	wctx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			service.RunWorker(wctx, service.NewClient(srv.URL), service.WorkerOptions{
				Name: name, Poll: 5 * time.Millisecond, Workers: 1,
			})
		}()
	}
	defer func() {
		m.Shutdown(context.Background())
		stopWorkers()
		wg.Wait()
	}()

	local, remote := filepath.Join(dir, "local.json"), filepath.Join(dir, "remote.ndjson")
	args := []string{"-spec", specPath, "-seed", "6", "-workers", "2"}
	if err := run(slices.Concat(args, []string{"-out", local})); err != nil {
		t.Fatal(err)
	}
	if err := run(slices.Concat(args, []string{"-daemon", srv.URL, "-out", remote})); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(lines), "\n"), "\n")
	if len(got) != len(res.Records) || len(got) != 4 {
		t.Fatalf("fleet streamed %d records, local run wrote %d, want 4", len(got), len(res.Records))
	}
	for i, rec := range res.Records {
		var want bytes.Buffer
		if err := json.Compact(&want, rec); err != nil {
			t.Fatal(err)
		}
		if got[i] != want.String() {
			t.Errorf("record %d:\n fleet %s\n local %s", i, got[i], want.String())
		}
		if !strings.Contains(got[i], `"ber_codewords":`) {
			t.Errorf("record %d carries no BER measurement: %s", i, got[i])
		}
	}
}

// TestUnknownScenarioExitCode re-executes the test binary as the sweep
// CLI to pin the process-level contract: exit status 1 and the catalog
// on stderr.
func TestUnknownScenarioExitCode(t *testing.T) {
	if os.Getenv("SWEEP_MAIN_TEST") == "1" {
		os.Args = []string{"sweep", "run", "-scenario", "no-such-scenario"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestUnknownScenarioExitCode")
	cmd.Env = append(os.Environ(), "SWEEP_MAIN_TEST=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err = %v", err)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, name := range sweep.Names() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("stderr does not list known scenario %q:\n%s", name, stderr.String())
		}
	}
}

// TestRunSpecLocalMatchesDaemon: 'sweep run -spec' builds one
// service.Request for both branches, so a local run and a -daemon run
// against sweepd resolve it alike and write the same records. Without
// -budget the spec's own budget applies; with it the flag wins.
func TestRunSpecLocalMatchesDaemon(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	doc := `{"name": "cli-vs-daemon", "axes": [{"name": "boards", "kind": "integer", "min": 2, "max": 3}], "budget": "smoke"}`
	if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m := service.New(service.Options{JobWorkers: 1})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()

	for _, c := range []struct {
		name   string
		flags  []string
		budget string
	}{
		{"spec budget", nil, "smoke"},
		{"flag budget", []string{"-budget", "analytic"}, "analytic"},
	} {
		t.Run(c.name, func(t *testing.T) {
			local, remote := filepath.Join(dir, "local.json"), filepath.Join(dir, "remote.ndjson")
			args := slices.Concat([]string{"-spec", specPath, "-seed", "4", "-workers", "2"}, c.flags)
			if err := run(slices.Concat(args, []string{"-out", local})); err != nil {
				t.Fatal(err)
			}
			if err := run(slices.Concat(args, []string{"-daemon", srv.URL, "-out", remote})); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(local)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Budget  string            `json:"budget"`
				Records []json.RawMessage `json:"records"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			page := m.ListPage(service.ListQuery{})
			job := page.Jobs[len(page.Jobs)-1]
			if res.Budget != c.budget || job.Budget != c.budget {
				t.Errorf("budget: local %q, daemon %q, want %q", res.Budget, job.Budget, c.budget)
			}
			lines, err := os.ReadFile(remote)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Split(strings.TrimSuffix(string(lines), "\n"), "\n")
			if len(got) != len(res.Records) || len(got) != 2 {
				t.Fatalf("daemon streamed %d records, local run wrote %d, want 2", len(got), len(res.Records))
			}
			for i, rec := range res.Records {
				var want bytes.Buffer
				if err := json.Compact(&want, rec); err != nil {
					t.Fatal(err)
				}
				if got[i] != want.String() {
					t.Errorf("record %d:\n daemon %s\n local  %s", i, got[i], want.String())
				}
			}
		})
	}
}
