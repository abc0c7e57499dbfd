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

// mirroredCounters are the published counters that each read one Result
// field.
var mirroredCounters = []struct {
	name  string
	field func(r *Result) int64
}{
	{"eagleeye_frames_total", func(r *Result) int64 { return int64(r.Frames) }},
	{"eagleeye_frames_with_targets_total", func(r *Result) int64 { return int64(r.FramesWithTargets) }},
	{"eagleeye_detections_total", func(r *Result) int64 { return int64(r.Detections) }},
	{"eagleeye_clusters_total", func(r *Result) int64 { return int64(r.Clusters) }},
	{"eagleeye_captures_total", func(r *Result) int64 { return int64(r.Captures) }},
	{"eagleeye_sched_solves_total", func(r *Result) int64 { return int64(r.SchedSolves) }},
	{"eagleeye_recapture_suppressed_total", func(r *Result) int64 { return int64(r.RecaptureSuppressed) }},
	{"eagleeye_crosslink_bytes_total", func(r *Result) int64 { return int64(r.CrosslinkBytes) }},
	{"eagleeye_missed_deadlines_total", func(r *Result) int64 { return int64(r.MissedDeadline) }},
	{"eagleeye_leader_reelections_total", func(r *Result) int64 { return int64(r.LeaderReelections) }},
}

// TestMetricsMatchResult runs one scenario in one shot, and in Advance
// windows that are not hour-aligned at Workers 1 and 4: after every
// window each counter that mirrors a Result field must equal it, and at
// the end the gauges, solver stacks and stage spans must be populated.
func TestMetricsMatchResult(t *testing.T) {
	base := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           polarWorld(1200, 7), DurationS: 3 * 3600, Seed: 3,
		RecaptureDedup: true,
	}
	for _, c := range []struct {
		name    string
		workers int
		windows []float64
	}{
		{"oneshot", 0, []float64{base.DurationS}},
		{"windowed-w1", 1, []float64{1000, 2500.5, 3600 * 1.7, 9000, base.DurationS}},
		{"windowed-w4", 4, []float64{1000, 2500.5, 3600 * 1.7, 9000, base.DurationS}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := base
			cfg.Workers, cfg.Metrics = c.workers, reg
			rn := mustRunner(t, cfg)
			var r *Result
			for _, w := range c.windows {
				advance(t, rn, w)
				r = result(t, rn)
				for _, m := range mirroredCounters {
					if got, want := reg.CounterValue(m.name), m.field(r); got != want {
						t.Errorf("at %v s: %s = %d, Result says %d", w, m.name, got, want)
					}
				}
			}
			if r.Captures == 0 || r.Detections == 0 {
				t.Fatal("degenerate run: no activity to check")
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
			// The solver stack must have been exercised and fed both
			// consumers' LP layers (exact values are limit-dependent,
			// presence is not).
			for _, solver := range []string{"sched", "cluster"} {
				lbl := obs.Label{Key: "solver", Value: solver}
				if reg.CounterValue("eagleeye_mip_solves_total", lbl) == 0 {
					t.Errorf("no MIP solves recorded for %q", solver)
				}
				if reg.CounterValue("eagleeye_lp_iters_total", lbl) == 0 {
					t.Errorf("no LP iterations recorded for %q", solver)
				}
			}
			// Stage spans: every non-empty frame times detect/cluster/sched,
			// so the nanosecond totals must be populated.
			for _, stage := range stageNames {
				lbl := obs.Label{Key: "stage", Value: stage}
				if reg.CounterValue("eagleeye_stage_nanoseconds_total", lbl) == 0 {
					t.Errorf("stage %q recorded no wall time", stage)
				}
			}
		})
	}
}

// TestMetricsAfterRestore pins the restore baseline: a runner restored
// with a fresh registry counts only what it runs after the restore, so
// after every window each counter equals the Result's growth since the
// snapshot, through a follower failure that fires after it.
func TestMetricsAfterRestore(t *testing.T) {
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           polarWorld(1200, 7), DurationS: 3 * 3600, Seed: 3,
		RecaptureDedup: true,
		Events:         []Event{{AtS: 7000, Kind: EventFollowerFail, Group: 0, Follower: 0}},
	}
	src := mustRunner(t, cfg)
	advance(t, src, 1.5*3600)
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	at := result(t, src)
	if at.Frames == 0 || at.Captures == 0 {
		t.Fatal("degenerate snapshot: nothing counted before it")
	}

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	r, err := RestoreRunner(cfg, &snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	var res *Result
	for _, w := range []float64{6300, 7777, cfg.DurationS} {
		advance(t, r, w)
		res = result(t, r)
		for _, c := range []struct {
			name   string
			labels []obs.Label
			want   int
		}{
			{"eagleeye_frames_total", nil, res.Frames - at.Frames},
			{"eagleeye_captures_total", nil, res.Captures - at.Captures},
			{"eagleeye_detections_total", nil, res.Detections - at.Detections},
			{"eagleeye_sched_solves_total", nil, res.SchedSolves - at.SchedSolves},
			{"eagleeye_fault_events_total", []obs.Label{{Key: "kind", Value: "follower-fail"}}, res.EventsApplied - at.EventsApplied},
		} {
			if got := reg.CounterValue(c.name, c.labels...); got != int64(c.want) {
				t.Errorf("at %v s: %s%v = %d, want the Result's growth since the snapshot, %d", w, c.name, c.labels, got, c.want)
			}
		}
	}
	if res.EventsApplied != 1 || at.EventsApplied != 0 {
		t.Fatalf("the follower failure applied %d times before the snapshot and %d in all, want 0 and 1", at.EventsApplied, res.EventsApplied)
	}
}

// TestFlightMatchesStageMetrics checks that the two sinks of a frame's
// stage walls agree: over a run whose every pipeline frame fits the
// flight ring, each stage's flight spans sum to its nanosecond counter.
func TestFlightMatchesStageMetrics(t *testing.T) {
	const ring = 1 << 14
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(obs.FlightConfig{Ring: ring})
	run(t, Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:           polarWorld(1200, 7), DurationS: 3 * 3600, Seed: 3, Workers: 4,
		Metrics: reg, Flight: flight,
	})
	dump := flight.Snapshot()
	if dump.Frames == 0 || dump.Frames > ring {
		t.Fatalf("flight recorder took %d frames, want 1..%d", dump.Frames, ring)
	}
	sums := make(map[string]int64)
	for _, f := range dump.Recent {
		for _, s := range f.Spans {
			if s.Kind == obs.SpanStage.String() {
				sums[s.Name] += s.DurNS
			}
		}
	}
	for _, stage := range stageNames[stageDetect:] {
		got := reg.CounterValue("eagleeye_stage_nanoseconds_total", obs.Label{Key: "stage", Value: stage})
		if got == 0 || sums[stage] != got {
			t.Errorf("stage %q: flight spans sum to %d ns, counter reads %d", stage, sums[stage], got)
		}
	}
}

// TestMetricsWorkerDeterminism runs a static and a moving world three
// times each at Workers 1 and 4: every deterministic counter, the index
// candidates and the moving world's epoch builds, which a helper
// goroutine may run, must total the same in every run, although the
// frame-query lookahead's share of the frames varies from run to run.
// The moving world's frame candidates are pinned to their value before
// the lookahead existed.
func TestMetricsWorkerDeterminism(t *testing.T) {
	const movingFrameCandidates = 1964
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
			for _, name := range deterministicCounters {
				if v1 := r1.CounterValue(name); v1 == 0 && name != "eagleeye_recapture_suppressed_total" {
					t.Errorf("%s: zero on an active run", name)
				}
			}
			if w.Moving {
				lbl := obs.Label{Key: "query", Value: "frame"}
				if got := r1.CounterValue("eagleeye_index_candidates_total", lbl); got != movingFrameCandidates {
					t.Errorf("index candidates{query=frame} = %d, want %d", got, movingFrameCandidates)
				}
			}
			for rep := 0; rep < 3; rep++ {
				for _, workers := range []int{1, 4} {
					if rep == 0 && workers == 1 {
						continue
					}
					rN := runWith(workers)
					for _, name := range deterministicCounters {
						if v1, vN := r1.CounterValue(name), rN.CounterValue(name); v1 != vN {
							t.Errorf("run %d: %s: Workers=1 total %d != Workers=%d total %d", rep, name, v1, workers, vN)
						}
					}
					for _, q := range queryNames {
						lbl := obs.Label{Key: "query", Value: q}
						v1, vN := r1.CounterValue("eagleeye_index_candidates_total", lbl), rN.CounterValue("eagleeye_index_candidates_total", lbl)
						if v1 != vN || v1 == 0 {
							t.Errorf("run %d: index candidates{query=%s}: Workers=1 total %d, Workers=%d total %d, want equal and nonzero", rep, q, v1, workers, vN)
						}
					}
					const builds = "eagleeye_index_epoch_builds_total"
					if v1, vN := r1.CounterValue(builds), rN.CounterValue(builds); v1 != vN || (v1 == 0) == w.Moving {
						t.Errorf("run %d: %s: Workers=1 total %d, Workers=%d total %d, want equal and nonzero exactly on a moving world", rep, builds, v1, workers, vN)
					}
				}
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
