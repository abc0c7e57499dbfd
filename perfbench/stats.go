package main

import (
	"sort"
	"time"
)

// derive maps (seed, k) to an independent positive sub-seed (splitmix
// style), so every unit, frame and tenant of a run gets its own input
// stream from the one --seed.
func derive(seed int64, k int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	if v := int64(h & 0x7FFFFFFFFFFFFFFF); v != 0 {
		return v
	}
	return 1
}

// pct is the nearest-rank percentile of xs (0 when empty): the smallest
// sample with at least p percent of the samples at or below it. It sorts a
// copy.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the interpolated median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) does, so
// the comparator's spread matches the acceptance rule's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
