package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/obs"
)

// TestWarmStartResultIdentity is the simulator half of the warm-start
// contract: for the same configuration, a warm run (cross-frame solver
// state, projection, crash-basis seeding, LP basis reuse) must produce a
// byte-identical Result and trace stream to a cold run -- only the
// solver-load and timing fields may differ -- while doing measurably less
// solver work. The scheduler objective's slot-time tie-break (see
// sched.edgeCost) is what makes this hold: each frame's optimum is unique,
// so the warm pivot path cannot land on a different tie-optimal schedule.
func TestWarmStartResultIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"benchmark-shape", Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
			App:           smallWorld(2000, 60), DurationS: 2 * 3600, Seed: 1,
		}},
		{"mix-camera", Config{
			Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 4},
			App:           smallWorld(1200, 61), DurationS: 2 * 3600, Seed: 9,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var coldTr, warmTr bytes.Buffer
			cold := tc.cfg
			cold.Workers = 1
			cold.DisableWarmStart = true
			cold.Trace = &coldTr
			warm := tc.cfg
			warm.Workers = 1
			warm.Trace = &warmTr
			cr := run(t, cold)
			wr := run(t, warm)
			if nc, nw := normalized(cr), normalized(wr); !reflect.DeepEqual(nc, nw) {
				t.Errorf("warm result diverges from cold:\n%+v\nvs\n%+v", nc, nw)
			}
			ct := decodeTrace(t, &coldTr)
			wt := decodeTrace(t, &warmTr)
			if !reflect.DeepEqual(ct, wt) {
				t.Errorf("warm trace diverges from cold: %d vs %d records", len(ct), len(wt))
			}
			// The warm run must also do less scheduling work. Node and
			// iteration counts are deterministic for a fixed seed at
			// Workers=1 (no wall-clock truncation on these small solves),
			// so a modest floor makes regressions visible without riding
			// the exact measured margin.
			coldWork := cr.SchedNodes + cr.SchedIters
			warmWork := wr.SchedNodes + wr.SchedIters
			if warmWork >= coldWork {
				t.Errorf("warm did no less sched work: %d vs cold %d", warmWork, coldWork)
			}
		})
	}
}

// TestWarmStartSolverSavings pins the acceptance-level savings on the
// benchmark workload shape: total sched B&B nodes + LP iterations must
// drop by at least 30%% warm versus cold. The counts are exact integers
// from deterministic solves, so this is stable across machines. The
// warm-start counters must show the pipeline engaging for both solver
// consumers on the warm run and stay silent on the cold one.
func TestWarmStartSolverSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:           smallWorld(2000, 60), DurationS: 2 * 3600, Seed: 1,
		Workers: 1,
	}
	cold := cfg
	cold.DisableWarmStart = true
	cold.Metrics = obs.NewRegistry()
	cr := run(t, cold)
	warm := cfg
	warm.Metrics = obs.NewRegistry()
	wr := run(t, warm)
	for _, solver := range []string{"sched", "cluster"} {
		lbl := obs.Label{Key: "solver", Value: solver}
		for _, name := range []string{"eagleeye_warmstart_accepted_total", "eagleeye_warmstart_basis_reuses_total"} {
			if warm.Metrics.CounterValue(name, lbl) == 0 {
				t.Errorf("warm run: %s{solver=%q} is 0", name, solver)
			}
		}
		families := 0
		for _, name := range cold.Metrics.Names() {
			if !strings.HasPrefix(name, "eagleeye_warmstart_") {
				continue
			}
			families++
			if v := cold.Metrics.CounterValue(name, lbl); v != 0 {
				t.Errorf("cold run: %s{solver=%q} = %d, want 0", name, solver, v)
			}
		}
		if families == 0 {
			t.Fatal("cold run registered no eagleeye_warmstart_* families")
		}
	}
	coldWork := cr.SchedNodes + cr.SchedIters
	warmWork := wr.SchedNodes + wr.SchedIters
	if coldWork == 0 {
		t.Fatal("benchmark workload scheduled nothing")
	}
	saved := 1 - float64(warmWork)/float64(coldWork)
	t.Logf("sched nodes+iters: cold %d warm %d (%.1f%% saved)", coldWork, warmWork, 100*saved)
	if saved < 0.30 {
		t.Errorf("warm start saved %.1f%% of sched nodes+iters, want >= 30%%", 100*saved)
	}
}
