package perf

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestMeasureCountsItersAndUnits(t *testing.T) {
	calls := 0
	w := Workload{
		Name:  "toy",
		Units: "widgets",
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			calls++
			return 3, nil
		},
	}
	m, err := w.Measure(context.Background(), 1, Budget{Name: "t", MinTime: 0, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	// MinTime 0: the loop runs exactly one measured iteration (plus the
	// warmup).
	if m.Iters != 1 || calls != 2 {
		t.Fatalf("iters = %d, calls = %d, want 1 measured + 1 warmup", m.Iters, calls)
	}
	if m.UnitsPerOp != 3 {
		t.Fatalf("units/op = %v, want 3", m.UnitsPerOp)
	}
	if m.Name != "toy" || m.Units != "widgets" {
		t.Fatalf("identity lost: %+v", m)
	}
}

func TestMeasureHonoursMaxIters(t *testing.T) {
	w := Workload{
		Name:  "toy",
		Units: "widgets",
		Run:   func(ctx context.Context, seed uint64) (float64, error) { return 1, nil },
	}
	m, err := w.Measure(context.Background(), 1, Budget{Name: "t", MinTime: time.Hour, MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != 4 {
		t.Fatalf("iters = %d, want MaxIters cap of 4", m.Iters)
	}
}

func TestMeasureSetupAndCleanup(t *testing.T) {
	var events []string
	w := Workload{
		Name:  "toy",
		Units: "widgets",
		Setup: func(ctx context.Context, seed uint64) (func(), error) {
			events = append(events, "setup")
			return func() { events = append(events, "cleanup") }, nil
		},
		Run: func(ctx context.Context, seed uint64) (float64, error) {
			events = append(events, "run")
			return 1, nil
		},
	}
	if _, err := w.Measure(context.Background(), 1, Budget{Name: "t", MaxIters: 1}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 || events[0] != "setup" || events[len(events)-1] != "cleanup" {
		t.Fatalf("lifecycle order = %v", events)
	}
}

func TestMeasurePropagatesRunError(t *testing.T) {
	boom := errors.New("boom")
	w := Workload{
		Name:  "toy",
		Units: "widgets",
		Run:   func(ctx context.Context, seed uint64) (float64, error) { return 0, boom },
	}
	if _, err := w.Measure(context.Background(), 1, Budget{Name: "t", MaxIters: 1}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the run error", err)
	}
}

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"ldpc-decode-paper",
		"ldpc-window-smoke",
		"metrics-overhead",
		"noc-compile-wide",
		"noc-compiled-fig8",
		"optimize-paper-space",
		"service-submit-poll",
		"store-reopen-cold",
		"store-shard-fanout",
		"sweep-analytic-cold",
		"sweep-warm-store",
		"tracing-overhead",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog = %v, want %v (sorted)", got, want)
		}
	}
	for _, w := range Catalog() {
		if w.Description == "" || w.Units == "" {
			t.Fatalf("workload %s lacks description or units", w.Name)
		}
	}
}

// TestCatalogWorkloadsRun executes every catalog workload once at a
// minimal budget: the committed BENCH baseline can only cover the full
// catalog if each entry actually runs everywhere.
func TestCatalogWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog execution is seconds-scale")
	}
	for _, w := range Catalog() {
		t.Run(w.Name, func(t *testing.T) {
			m, err := w.Measure(context.Background(), DefaultSeed, Budget{Name: "test", MaxIters: 1})
			if err != nil {
				t.Fatal(err)
			}
			if m.Iters != 1 || m.UnitsPerOp <= 0 || m.NsPerOp <= 0 {
				t.Fatalf("degenerate measurement: %+v", m)
			}
		})
	}
}

// TestWorkloadsDeterministic re-runs each stateless workload and
// checks the domain unit count is identical: the harness contract that
// a workload's work content is a pure function of (workload, seed).
func TestWorkloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog execution is seconds-scale")
	}
	for _, name := range []string{"ldpc-decode-paper", "noc-compiled-fig8", "sweep-analytic-cold", "optimize-paper-space"} {
		w, ok := Lookup(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			a, err := w.Run(context.Background(), DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Run(context.Background(), DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			if a != b || a <= 0 {
				t.Fatalf("unit count varies between runs: %v vs %v", a, b)
			}
		})
	}
}
