package main

import "testing"

func TestPercentileCountsSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	// Nearest rank: with 10 samples p90 is the 9th, p99 the 10th.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.9); got != 9 {
		t.Errorf("p90 of 10 samples = %v, want 9", got)
	}
	if got := percentile(ten, 0.99); got != 10 {
		t.Errorf("p99 of 10 samples = %v, want 10", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
