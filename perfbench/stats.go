package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of xs by the
// nearest-rank method: the smallest sample with at least q·n samples at
// or below it. xs need not be sorted; it is not modified. An empty
// sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile (the middle sample of an odd
// count, the lower middle of an even one).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean returns the arithmetic mean of xs; an empty sample reads 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// exercised reads 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeEach runs f once per element of n back to back and returns the
// mean duration of one call in microseconds. It is the layer-probe
// primitive: time a public call from outside, many times, report the
// mean.
func timeEach(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(start)) / float64(n)
}
