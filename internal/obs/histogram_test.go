package obs

import (
	"math"
	"math/rand"
	"testing"
)

// bruteBuckets is the reference implementation: linear scan over the
// bounds with the same le-inclusive convention.
func bruteBuckets(bounds []float64, vals []float64) (counts []int64, sum float64) {
	counts = make([]int64, len(bounds)+1)
	for _, v := range vals {
		i := len(bounds) // +Inf unless a bound admits v
		for bi, b := range bounds {
			if v <= b {
				i = bi
				break
			}
		}
		counts[i]++
		sum += v
	}
	return counts, sum
}

func TestHistogramAgainstBruteForce(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	h := newHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = rng.Float64() * 20 // spans all buckets incl. +Inf
		case 1:
			v = math.Pow(10, -4+rng.Float64()*6) // log-uniform
		case 2:
			v = bounds[rng.Intn(len(bounds))] // exactly on a bound: le-inclusive
		default:
			v = -rng.Float64() // below the first bound
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	wantCounts, wantSum := bruteBuckets(bounds, vals)
	snap := h.Snapshot()
	if snap.Count != int64(len(vals)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(vals))
	}
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Errorf("bucket %d: got %d, want %d", i, snap.Counts[i], want)
		}
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6*math.Abs(wantSum) {
		t.Errorf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" bucket, not le="2"
	h.Observe(2)
	h.Observe(2.0000001)
	snap := h.Snapshot()
	if snap.Counts[0] != 1 || snap.Counts[1] != 1 || snap.Counts[2] != 1 {
		t.Fatalf("counts = %v, want [1 1 1]", snap.Counts)
	}
}

func TestDefTimeBucketsSorted(t *testing.T) {
	for i := 1; i < len(DefTimeBuckets); i++ {
		if DefTimeBuckets[i] <= DefTimeBuckets[i-1] {
			t.Fatalf("DefTimeBuckets not strictly ascending at %d", i)
		}
	}
}
