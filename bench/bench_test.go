package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// catalogue is the metric list of BENCHMARK.json.
type catalogue struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadCatalogue(t *testing.T) catalogue {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTinyRun measures every workload traced, at two jobs per phase,
// and checks the report: every catalogued metric is present, finite and
// in its unit, no job failed its record check, the probe agrees with
// the fleet, and the wall-time shares add up to the whole.
func TestTinyRun(t *testing.T) {
	cat := loadCatalogue(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := measure(config{
				w: w, seed: 1, length: time.Minute, trace: true, maxJobs: 2, workdir: t.TempDir(),
				// One job keeps the probe short; the run still compares it
				// against the fleet's records.
				probe: func(w *workload, seed uint64, _ int, _ time.Duration) (*probeReport, error) {
					return probe(w, seed, 1, 0)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("failed %d of %d jobs: %v", rep.failed, rep.attempted, rep.problems)
			}
			for _, group := range []struct {
				got  map[string]metric
				want []struct{ Name, Unit string }
			}{{rep.e2e, cat.EndToEnd}, {rep.layers, cat.PerLayer}} {
				for _, m := range group.want {
					got, ok := group.got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, catalogue says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if len(group.got) != len(group.want) {
					t.Errorf("emitted %d metrics, catalogue lists %d", len(group.got), len(group.want))
				}
			}
			sum := 0.0
			for _, l := range shareLayers {
				sum += rep.layers["share."+l.name].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %.12f, want 1", sum)
			}
		})
	}
}

// TestJobsArePureFunctionsOfSeed: the same seed gives byte-identical
// requests, another seed different ones.
func TestJobsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < 30; i++ {
			a, b, c := w.job(7, i), w.job(7, i), w.job(8, i)
			if !bytes.Equal(a.body, b.body) {
				t.Errorf("%s job %d differs between two calls with one seed", w.name, i)
			}
			if bytes.Equal(a.body, c.body) {
				t.Errorf("%s job %d is the same under seeds 7 and 8", w.name, i)
			}
			if _, err := a.request(); err != nil {
				t.Errorf("%s job %d: %v", w.name, i, err)
			}
		}
		if w.fill == nil {
			continue
		}
		a, b, c := w.fill(7), w.fill(7), w.fill(8)
		for k := range a {
			if !bytes.Equal(a[k].body, b[k].body) || bytes.Equal(a[k].body, c[k].body) {
				t.Errorf("%s fill job %d is not a pure function of the seed", w.name, k)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4)
// and statistics.median, which the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
