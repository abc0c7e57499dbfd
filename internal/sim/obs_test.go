package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
)

// deterministicCounters is the metric set whose totals must be identical
// for any worker count: integer event counters fed from the same per-job
// accounting that makes the simulation itself worker-independent. Timing
// series, deadline misses and solver node/iteration counts are excluded
// -- they depend on wall clock and search limits, exactly like the
// fields sim_test.go's normalized() masks.
var deterministicCounters = []string{
	"eagleeye_frames_total",
	"eagleeye_frames_with_targets_total",
	"eagleeye_detections_total",
	"eagleeye_clusters_total",
	"eagleeye_captures_total",
	"eagleeye_sched_solves_total",
	"eagleeye_recapture_suppressed_total",
	"eagleeye_crosslink_bytes_total",
}

func TestMetricsMatchResult(t *testing.T) {
	w := polarWorld(1200, 7)
	reg := obs.NewRegistry()
	r := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           w, DurationS: 3 * 3600, Seed: 3,
		RecaptureDedup: true, Metrics: reg,
	})
	checks := []struct {
		name string
		want int64
	}{
		{"eagleeye_frames_total", int64(r.Frames)},
		{"eagleeye_frames_with_targets_total", int64(r.FramesWithTargets)},
		{"eagleeye_detections_total", int64(r.Detections)},
		{"eagleeye_clusters_total", int64(r.Clusters)},
		{"eagleeye_captures_total", int64(r.Captures)},
		{"eagleeye_sched_solves_total", int64(r.SchedSolves)},
		{"eagleeye_recapture_suppressed_total", int64(r.RecaptureSuppressed)},
		{"eagleeye_crosslink_bytes_total", int64(r.CrosslinkBytes)},
		{"eagleeye_missed_deadlines_total", int64(r.MissedDeadline)},
	}
	if r.Captures == 0 || r.Detections == 0 {
		t.Fatal("degenerate run: no activity to check")
	}
	for _, c := range checks {
		if got := reg.CounterValue(c.name); got != c.want {
			t.Errorf("%s = %d, Result says %d", c.name, got, c.want)
		}
	}
	if got := reg.GaugeValue("eagleeye_targets_captured"); got != float64(r.HighResCaptured) {
		t.Errorf("eagleeye_targets_captured = %v, Result says %d", got, r.HighResCaptured)
	}
	// Every cover of this sparse world fits the cover ILP.
	if got := reg.CounterValue("eagleeye_cluster_fallbacks_total"); got != 0 {
		t.Errorf("eagleeye_cluster_fallbacks_total = %d, want 0", got)
	}
	if got := reg.GaugeValue("eagleeye_sim_progress"); got != 1 {
		t.Errorf("eagleeye_sim_progress = %v at end of run", got)
	}
	// The solver stack must have been exercised and fed both consumers'
	// LP layers (exact values are limit-dependent, presence is not).
	for _, solver := range []string{"sched", "cluster"} {
		lbl := obs.Label{Key: "solver", Value: solver}
		if reg.CounterValue("eagleeye_mip_solves_total", lbl) == 0 {
			t.Errorf("no MIP solves recorded for %q", solver)
		}
		if reg.CounterValue("eagleeye_lp_iters_total", lbl) == 0 {
			t.Errorf("no LP iterations recorded for %q", solver)
		}
	}
	// Stage spans: every non-empty frame times detect/cluster/sched, so
	// the nanosecond totals must be populated.
	for _, stage := range []string{"detect", "cluster", "sched", "execute", "account", "ephemeris"} {
		lbl := obs.Label{Key: "stage", Value: stage}
		if reg.CounterValue("eagleeye_stage_nanoseconds_total", lbl) == 0 {
			t.Errorf("stage %q recorded no wall time", stage)
		}
	}
}

// TestMetricsWorkerDeterminism runs a static and a moving world at
// Workers 1 and 4: every deterministic counter, the index candidates and
// the moving world's epoch builds, which a helper goroutine may run,
// must total the same.
func TestMetricsWorkerDeterminism(t *testing.T) {
	for _, w := range []*dataset.Set{polarWorld(1500, 11), movingWorld(12000, 57, 3*3600)} {
		t.Run(w.Name, func(t *testing.T) {
			runWith := func(workers int) *obs.Registry {
				reg := obs.NewRegistry()
				run(t, Config{
					Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
					App:           w, DurationS: 3 * 3600, Seed: 9,
					Workers: workers, Metrics: reg,
				})
				return reg
			}
			r1 := runWith(1)
			r4 := runWith(4)
			for _, name := range deterministicCounters {
				v1, v4 := r1.CounterValue(name), r4.CounterValue(name)
				if v1 != v4 {
					t.Errorf("%s: Workers=1 total %d != Workers=4 total %d", name, v1, v4)
				}
				if v1 == 0 && name != "eagleeye_recapture_suppressed_total" {
					t.Errorf("%s: zero on an active run", name)
				}
			}
			for _, q := range queryNames {
				lbl := obs.Label{Key: "query", Value: q}
				v1, v4 := r1.CounterValue("eagleeye_index_candidates_total", lbl), r4.CounterValue("eagleeye_index_candidates_total", lbl)
				if v1 != v4 || v1 == 0 {
					t.Errorf("index candidates{query=%s}: Workers=1 total %d, Workers=4 total %d, want equal and nonzero", q, v1, v4)
				}
			}
			const builds = "eagleeye_index_epoch_builds_total"
			if v1, v4 := r1.CounterValue(builds), r4.CounterValue(builds); v1 != v4 || (v1 == 0) == w.Moving {
				t.Errorf("%s: Workers=1 total %d, Workers=4 total %d, want equal and nonzero exactly on a moving world", builds, v1, v4)
			}
		})
	}
}

func TestMetricsStripBaseline(t *testing.T) {
	w := polarWorld(600, 13)
	reg := obs.NewRegistry()
	r := run(t, Config{
		Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 4},
		App:           w, DurationS: 2 * 3600, Seed: 2, Metrics: reg,
	})
	if got := reg.CounterValue("eagleeye_frames_total"); got != int64(r.Frames) {
		t.Errorf("strip frames counter %d, Result says %d", got, r.Frames)
	}
	if got := reg.CounterValue("eagleeye_frames_with_targets_total"); got != int64(r.FramesWithTargets) {
		t.Errorf("strip frames-with-targets counter %d, Result says %d", got, r.FramesWithTargets)
	}
}

// TestTraceMetricsConsistency cross-checks the two observability
// channels: the sum of per-frame capture/detection counts in the trace
// must equal the corresponding counters, frame for frame.
func TestTraceMetricsConsistency(t *testing.T) {
	w := polarWorld(1000, 17)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 3 * 3600, Seed: 4,
		Trace: &buf, Metrics: reg,
	})
	var captures, detections, clusters, nonEmpty int64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec TraceRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		captures += int64(rec.Captures)
		detections += int64(rec.Detected)
		clusters += int64(rec.Clusters)
		nonEmpty++
	}
	if nonEmpty == 0 {
		t.Fatal("trace is empty")
	}
	if got := reg.CounterValue("eagleeye_captures_total"); got != captures {
		t.Errorf("captures_total = %d, trace sums to %d", got, captures)
	}
	if got := reg.CounterValue("eagleeye_detections_total"); got != detections {
		t.Errorf("detections_total = %d, trace sums to %d", got, detections)
	}
	if got := reg.CounterValue("eagleeye_clusters_total"); got != clusters {
		t.Errorf("clusters_total = %d, trace sums to %d", got, clusters)
	}
	if got := reg.CounterValue("eagleeye_sched_solves_total"); got != nonEmpty {
		t.Errorf("sched_solves_total = %d, trace has %d records", got, nonEmpty)
	}
}

// TestMetricsDoNotPerturbSimulation guards the enabled path's
// correctness (not just the disabled path's cost): instrumentation must
// not change what the simulator computes.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	w := polarWorld(800, 19)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
		App:           w, DurationS: 2 * 3600, Seed: 6,
	}
	bare := run(t, cfg)
	cfg.Metrics = obs.NewRegistry()
	instrumented := run(t, cfg)
	if bare.HighResCaptured != instrumented.HighResCaptured ||
		bare.Captures != instrumented.Captures ||
		bare.Detections != instrumented.Detections ||
		bare.CrosslinkBytes != instrumented.CrosslinkBytes {
		t.Errorf("metrics changed the simulation: %+v vs %+v", bare, instrumented)
	}
}

// benchmarkRunMetrics is benchmarkRun with a live registry, for the
// enabled-mode overhead comparison against BenchmarkRunWorkers1.
func benchmarkRunMetrics(b *testing.B, workers int) {
	w := smallWorld(2000, 60)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:           w, DurationS: 2 * 3600, Seed: 1, Workers: workers,
		Metrics: obs.NewRegistry(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWorkers1Metrics(b *testing.B) { benchmarkRunMetrics(b, 1) }
func BenchmarkRunWorkers4Metrics(b *testing.B) { benchmarkRunMetrics(b, 4) }
