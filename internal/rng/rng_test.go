package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds coincided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1, c2 := parent.Split(1), parent.Split(2)
	c1again := New(7).Split(1)
	// Same (seed, index) -> identical stream.
	for i := 0; i < 100; i++ {
		if c1.Float64() != c1again.Float64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// Distinct indices -> decorrelated streams.
	c1 = New(7).Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling streams coincided %d/100 times", same)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(1234)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %g, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(4)
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.01 {
		t.Errorf("Exp(4) mean = %g, want 0.25", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestBernoulli(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %g", p)
	}
}

func TestIntnCoversRange(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
}
