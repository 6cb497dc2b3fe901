package main

import (
	"math"
	"testing"
)

func TestQuantileKnownInputs(t *testing.T) {
	cases := []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		// 1..10: the 0.9 rank is 8.1 on a 0-based scale -> 9.1.
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 9.1},
		// A 30% shift is visible, unlike on power-of-two bucket edges.
		{[]float64{4.0, 4.0, 4.0}, 0.5, 4.0},
		{[]float64{5.2, 5.2, 5.2}, 0.5, 5.2},
	}
	for _, c := range cases {
		if got := quantile(c.in, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestQuantileDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func TestBeyondCountsTail(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i + 1)
	}
	// p90 of 1..100 is 90.1; 91..100 lie beyond it.
	if got := beyond(in, 0.9); got != 10 {
		t.Fatalf("beyond(1..100, 0.9) = %d, want 10", got)
	}
}

func TestSelfTime(t *testing.T) {
	const msNS = int64(1e6)
	tr := &tracer{}
	root := tr.add("question", -1, 1, 0, 100*msNS)
	tr.add("chase.run", root, 1, 10*msNS, 60*msNS)
	tr.add("chase.compile", root, 1, 50*msNS, 70*msNS) // overlaps the run by 10ms
	got := tr.selfTimes()
	if got["question"] != 100-60 {
		t.Errorf("question self = %v, want 40", got["question"])
	}
	if got["chase.run"] != 50 || got["chase.compile"] != 20 {
		t.Errorf("leaf self times = %v", got)
	}
}
