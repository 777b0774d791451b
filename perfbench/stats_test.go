package main

import (
	"math"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0},      // not even the median has ten beyond it
		{20, 0.5},   // ten beyond the median
		{99, 0.5},   // p90 leaves only 9 beyond
		{100, 0.9},  // p90 leaves exactly 10
		{999, 0.95}, // p99 leaves only 9
		{1000, 0.99},
	} {
		if got := tailQuantile(c.n, 0.5, 0.9, 0.95, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndGeomean(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{0, 2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean ignores non-positive values: got %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{1, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed request's +Inf latency must reach the tail, got %g", got)
	}
}
