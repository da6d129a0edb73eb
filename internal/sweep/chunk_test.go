package sweep

import (
	"context"
	"encoding/json"
	"testing"
)

// TestEvaluatePointsChunksMatchRun is the determinism contract of the
// distributed tier: evaluating the grid's points chunk by chunk, for any
// partition, and concatenating the records must reproduce a single-node
// Run byte for byte — under the analytic budget, and under a
// Monte-Carlo one whose chunks each simulate the sub-models they share
// on their own.
func TestEvaluatePointsChunksMatchRun(t *testing.T) {
	baseline, err := Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sc     Scenario
		budget Budget
	}{
		{baseline, AnalyticBudget()},
		{shareScenario(), shareBudget()},
	} {
		cfg := Config{Workers: 2, Seed: 7, Budget: c.budget}
		full, err := Run(context.Background(), c.sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts := c.sc.Points()
		for _, size := range []int{1, 3, len(full.Records)} {
			var merged []Record
			for lo := 0; lo < len(pts); lo += size {
				hi := min(lo+size, len(pts))
				recs, _, err := EvaluatePoints(context.Background(), c.sc.Name, pts[lo:hi], cfg)
				if err != nil {
					t.Fatalf("chunk [%d,%d): %v", lo, hi, err)
				}
				if len(recs) != hi-lo {
					t.Fatalf("chunk [%d,%d) returned %d records", lo, hi, len(recs))
				}
				merged = append(merged, recs...)
			}
			// Chunk records carry Pareto unset; the merger marks the front.
			Pareto{}.Mark(merged)
			a, _ := json.Marshal(full.Records)
			b, _ := json.Marshal(merged)
			if string(a) != string(b) {
				t.Fatalf("%s/%s chunk size %d: merged records differ from single-node run", c.sc.Name, c.budget.Name, size)
			}
		}
	}
}
