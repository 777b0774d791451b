package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, or 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantile returns the highest of the candidate percentiles that
// leaves at least ten samples beyond it, or 0 when even the lowest
// does not. A tail read from fewer samples is one or two outliers, not
// a percentile.
func tailQuantile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 && q > best {
			best = q
		}
	}
	return best
}

// geomean returns the geometric mean of the positive values, or 0
// when there are none. Ratios to a baseline average this way.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }
