package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		wantValue float64
		wantUsed  float64
	}{
		{400, 380, 95},   // p95 has 20 beyond: reported as is
		{200, 190, 95},   // exactly 10 beyond
		{100, 90, 90},    // p95 would have 5 beyond: lowered to p90
		{30, 20, 66.667}, // lowered to rank 20
		{21, 11, 50},     // rank 11 is the median rank: the median
		{10, 5.5, 50},    // too few samples: the median
		{1, 1, 50},
	}
	for _, c := range cases {
		v, used := tail(seq(c.n), 95)
		if v != c.wantValue || used < c.wantUsed-0.01 || used > c.wantUsed+0.01 {
			t.Errorf("n=%d: tail = %v at p%.3f, want %v at p%.3f", c.n, v, used, c.wantValue, c.wantUsed)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if used > 50 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}
