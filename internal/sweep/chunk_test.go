package sweep

import (
	"context"
	"encoding/json"
	"testing"
)

func TestChunksPartition(t *testing.T) {
	cases := []struct {
		n, size int
		want    []Chunk
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{1, 4, []Chunk{{0, 1}}},
		{4, 4, []Chunk{{0, 4}}},
		{5, 4, []Chunk{{0, 4}, {4, 5}}},
		{8, 3, []Chunk{{0, 3}, {3, 6}, {6, 8}}},
		{3, 0, []Chunk{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got := Chunks(c.n, c.size)
		if len(got) != len(c.want) {
			t.Errorf("Chunks(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
			continue
		}
		total := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Chunks(%d, %d)[%d] = %v, want %v", c.n, c.size, i, got[i], c.want[i])
			}
			total += got[i].Len()
		}
		if c.n > 0 && total != c.n {
			t.Errorf("Chunks(%d, %d) covers %d points", c.n, c.size, total)
		}
	}
}

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
			for _, ch := range Chunks(len(full.Records), size) {
				recs, _, err := EvaluatePoints(context.Background(), c.sc.Name, pts[ch.Start:ch.End], cfg)
				if err != nil {
					t.Fatalf("chunk %v: %v", ch, err)
				}
				if len(recs) != ch.Len() {
					t.Fatalf("chunk %v returned %d records", ch, len(recs))
				}
				merged = append(merged, recs...)
			}
			// Chunk records carry Pareto unset; the merger marks the front.
			MarkParetoFeasible(merged, nil)
			a, _ := json.Marshal(full.Records)
			b, _ := json.Marshal(merged)
			if string(a) != string(b) {
				t.Fatalf("%s/%s chunk size %d: merged records differ from single-node run", c.sc.Name, c.budget.Name, size)
			}
		}
	}
}
