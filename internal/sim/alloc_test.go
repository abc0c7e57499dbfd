package sim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
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

// TestLookaheadAllocs gates the frame-query lookahead's steady state,
// which TestFrameLoopAllocs cannot see: AllocsPerRun sets GOMAXPROCS to 1,
// where no helper starts. Here GOMAXPROCS is 2 and Workers 1 on the four
// groups of the moving world above, run over 4 h, so the helper runs
// beside the loops. After a warm run (solver pools) and a warm-up hour of
// the measured runner (its own query scratch and slots), the heap
// allocations of the next twelve 15-minute windows -- loops, helper and
// epoch prefetch together, with the collector off so no pool drains
// between them -- stay within lookaheadAllocLimit in the best of three
// runners whose helper ran frame queries. Measured (best of three, 2-CPU
// VM): 441-479, nearly all of it the loops' own (the same windows without
// a helper: ~430-460). A pooled solver state parked in the other P's
// private slot adds a few hundred to a single runner, hence the best of
// three. A helper that allocated on each of the ~2,300-3,200 frame
// queries it runs there fails the gate. The helper is help-first, so on
// a loaded machine it may start every span and still reach no frame
// before the loop does; such a runner does not count, and up to ten are
// tried.
func TestLookaheadAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const lookaheadAllocLimit = 700
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:           movingWorld(2000, 60, 4*3600), DurationS: 4 * 3600, Seed: 1, Workers: 1,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	best, measured := uint64(math.MaxUint64), 0
	for i := 0; i < 10 && measured < 3; i++ {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		advance(t, r, 3600)
		r.index.Wait()
		starts := r.ahead.starts
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for b := 3600.0 + 900; b <= cfg.DurationS; b += 900 {
			advance(t, r, b)
		}
		r.index.Wait()
		runtime.ReadMemStats(&after)
		r.Close() // hands the solver states back to the pools
		if spans := r.ahead.starts - starts; spans != 12 {
			t.Fatalf("runner %d: the helper started in %d of twelve windows", i, spans)
		}
		mallocs := after.Mallocs - before.Mallocs
		ahead := reg.CounterValue("eagleeye_frame_queries_ahead_total")
		t.Logf("runner %d: %d allocations over twelve windows; the helper ran %d frame queries", i, mallocs, ahead)
		if ahead > 0 {
			best = min(best, mallocs)
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("the helper ran no frame query in ten runners")
	}
	if best > lookaheadAllocLimit {
		t.Fatalf("%d allocations over twelve windows with the helper on, want <= %d", best, lookaheadAllocLimit)
	}
}
