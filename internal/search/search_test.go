package search

import (
	"math"
	"testing"
)

func TestParamDecode(t *testing.T) {
	cont := Param{Name: "c", Kind: Continuous, Min: 1, Max: 3}
	integer := Param{Name: "i", Kind: Integer, Min: 2, Max: 9}
	boolean := Param{Name: "b", Kind: Bool, Min: 0, Max: 1}
	cases := []struct {
		p    Param
		in   float64
		want float64
	}{
		{cont, 2.5, 2.5},
		{cont, -10, 1}, // clamp low
		{cont, 100, 3}, // clamp high
		{cont, math.NaN(), 1},
		{integer, 4.4, 4},
		{integer, 4.6, 5},
		{integer, 100, 9},
		{boolean, 0.49, 0},
		{boolean, 0.5, 1},
		{boolean, 2, 1},
	}
	for _, c := range cases {
		if got := c.p.Decode(c.in); got != c.want {
			t.Errorf("%s.Decode(%v) = %v, want %v", c.p.Name, c.in, got, c.want)
		}
	}
}

func TestGetUnknownSpace(t *testing.T) {
	if _, err := Get("no-such-space"); err == nil {
		t.Fatal("Get(no-such-space) did not fail")
	}
}

// mkIndiv builds a feasible individual with the given cost vector.
func mkIndiv(idx int, cost ...float64) *indiv {
	return &indiv{cost: cost, feasible: true, idx: idx}
}

func TestDominatesConstrained(t *testing.T) {
	feasible := mkIndiv(0, 1, 1)
	worse := mkIndiv(1, 2, 2)
	tied := mkIndiv(2, 1, 1)
	infeasible := &indiv{cost: []float64{math.Inf(1), math.Inf(1)}, idx: 3}

	if !dominates(feasible, worse) {
		t.Error("strictly better point does not dominate")
	}
	if dominates(worse, feasible) {
		t.Error("strictly worse point dominates")
	}
	if dominates(feasible, tied) || dominates(tied, feasible) {
		t.Error("exact ties dominate each other")
	}
	if !dominates(feasible, infeasible) {
		t.Error("feasible does not dominate infeasible")
	}
	if dominates(infeasible, feasible) {
		t.Error("infeasible dominates feasible")
	}
	other := &indiv{cost: []float64{math.Inf(1), math.Inf(1)}, idx: 4}
	if dominates(infeasible, other) || dominates(other, infeasible) {
		t.Error("two infeasible points dominate each other")
	}
}

func TestSortFrontsAndCrowding(t *testing.T) {
	// Two clear fronts: {0,1} trade off against each other, {2} is
	// dominated by both.
	a := mkIndiv(0, 1, 3)
	b := mkIndiv(1, 3, 1)
	c := mkIndiv(2, 4, 4)
	fronts := sortFronts([]*indiv{a, b, c})
	if len(fronts) != 2 || len(fronts[0]) != 2 || len(fronts[1]) != 1 {
		t.Fatalf("front sizes = %v", fronts)
	}
	if a.rank != 0 || b.rank != 0 || c.rank != 1 {
		t.Fatalf("ranks = %d %d %d", a.rank, b.rank, c.rank)
	}
	// Boundary individuals of a 3+ front get infinite crowding.
	d := mkIndiv(3, 2, 2)
	front := []*indiv{a, b, d}
	for _, ind := range front {
		ind.rank = 0
	}
	setCrowding(front)
	if !math.IsInf(a.crowd, 1) || !math.IsInf(b.crowd, 1) {
		t.Errorf("boundary crowding = %v, %v", a.crowd, b.crowd)
	}
	if math.IsInf(d.crowd, 1) || d.crowd <= 0 {
		t.Errorf("interior crowding = %v", d.crowd)
	}
}

func TestEnvironmentalSelectElitist(t *testing.T) {
	// Selection must keep every first-front member before any
	// second-front one.
	a := mkIndiv(0, 1, 3)
	b := mkIndiv(1, 3, 1)
	c := mkIndiv(2, 4, 4)
	d := mkIndiv(3, 5, 5)
	next := environmentalSelect([]*indiv{d, c, b, a}, 2)
	if len(next) != 2 {
		t.Fatalf("selected %d individuals", len(next))
	}
	got := map[int]bool{next[0].idx: true, next[1].idx: true}
	if !got[0] || !got[1] {
		t.Fatalf("selection kept %v, want the first front {0, 1}", got)
	}
}
