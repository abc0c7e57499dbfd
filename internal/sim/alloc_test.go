package sim

import (
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
)

// TestFrameLoopAllocs gates the frame loop's steady-state allocation count.
// The zero-allocation frame loop work (incremental ephemeris stepping,
// index query scratch, scheduler/cluster arenas, wire-encode scratch)
// brought a 2-hour 8-satellite run from ~4400 heap allocations to a few
// hundred, all of it per-run setup (constellation build, index build,
// run-state construction) rather than per-frame work. The limit asserts
// the >= 10x reduction with headroom for map-growth jitter; a regression
// back to per-frame allocation blows through it by an order of magnitude.
// The moving world runs the moving-set query path (epoch sweeps and the
// bucket-order step), whose per-query scratch must stay off the heap too.
func TestFrameLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, c := range []struct {
		name  string
		app   *dataset.Set
		limit float64
	}{
		{"static", smallWorld(2000, 60), 430},        // baseline before the arena work: ~4400
		{"moving", movingWorld(2000, 60, 7200), 750}, // the bucket-filled index: ~600
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
				App:           c.app, DurationS: 2 * 3600, Seed: 1, Workers: 1,
			}
			// Warm the arenas and pools: first-run allocations (grow-only
			// scratch, sync.Pool fills) are excluded from the steady-state
			// gate.
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations per run", allocs)
			if allocs > c.limit {
				t.Fatalf("frame loop allocates %.0f times per run, want <= %.0f", allocs, c.limit)
			}
		})
	}
}
