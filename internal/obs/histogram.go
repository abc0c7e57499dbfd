package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefTimeBuckets is the default upper-bound set for duration histograms,
// spanning 1 microsecond to 2.5 seconds: the simulator's stage spans run
// from sub-10 us ephemeris steps to near-deadline ILP solves.
var DefTimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram. Bucket upper bounds are
// inclusive (v <= bound), matching the Prometheus `le` convention; values
// above the last bound land in the implicit +Inf bucket. Bucket counts are
// integer atomics, so totals are independent of observer interleaving; the
// sum is a float accumulator and is therefore only reproducible up to
// addition order.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value: a single atomic bucket increment plus a CAS
// sum update. sort.SearchFloat64s finds the first i with bounds[i] >= v,
// which is exactly the inclusive-upper-bound bucket; NaN falls through to
// +Inf.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time read of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []int64   // per-bucket (non-cumulative) counts, len(Bounds)+1
	Sum    float64
	Count  int64
}

// Snapshot reads the histogram. Under concurrent observation the snapshot
// is approximate (each slot read is atomic, the set is not), which is fine
// for scraping; quiescent reads are exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Count += snap.Counts[i]
	}
	return snap
}
