package sim

import (
	"eagleeye/internal/obs"
)

// Observability wiring. When Config.Metrics is nil the simulator holds no
// handles, and the frame loop stays byte-identical to the uninstrumented
// one (the TestFrameLoopAllocs gate). When set, handles are resolved from
// the registry ONCE here, before any job starts.
//
// Each job counts every event once, in its own accumulators: its Result,
// and runState.cnt for the counts only the registry reports. After every
// span of Runner.Advance (an hour, or the window if that is shorter) the
// runner adds the jobs' growth since its last report to the counters the
// published table lists (Runner.report). The frame loops write only stage
// timings to the registry.
//
// Determinism: the published counters equal the job accumulators summed
// in job order, so the event counters (frames, detections, captures, ...)
// are identical for any Workers value by the same argument as the Result.
// Timing series (stage seconds) and solver-limit series (missed deadlines,
// B&B nodes, truncations, fallbacks) depend on wall clock and machine load
// and are excluded from that guarantee.

// stageID indexes the frame-pipeline stages instrumented with spans.
type stageID int

const (
	stageEphemeris stageID = iota // orbit stepper advance (sampled)
	stageDetect                   // ML detection
	stageCluster                  // target clustering (set cover)
	stageSched                    // follower scheduling (flow ILP)
	stageExecute                  // schedule execution + capture scoring
	stageAccount                  // comms/energy accounting + trace staging
	numStages
)

var stageNames = [numStages]string{
	"ephemeris", "detect", "cluster", "sched", "execute", "account",
}

// queryID indexes the simulator's target-index queries, whose results
// (TimedIndex.NearInto candidates) the caller filters exactly.
type queryID int

const (
	queryFrame   queryID = iota // a frame's footprint (leader frames and strip steps)
	queryCapture                // a capture's footprint (executeSchedule)
	numQueries
)

var queryNames = [numQueries]string{"frame", "capture"}

// countID indexes runState.cnt: the counts a job keeps that only the
// registry reports.
type countID int

const (
	cntFollowerFails    countID = iota // follower-fail events applied
	cntLeaderFails                     // leader-fail events applied
	cntSchedFallbacks                  // greedy schedules after the ILP stopped without an incumbent
	cntClusterFallbacks                // covers not from the set-cover ILP
	cntFramesAhead                     // frame queries the lookahead helper ran
	cntQueryWaitNS                     // loop time waiting for a query the helper was running
	cntCandidates                      // + queryID: index candidates, by query
)

const numCounts = cntCandidates + countID(numQueries)

// published lists the counters the runner publishes from the job
// accumulators, and which accumulator each reads. No other code knows
// which counters are published.
var published = [...]struct {
	name, help string
	labels     []obs.Label
	read       func(st *runState) int64
}{
	{"eagleeye_frames_total", "Low-resolution frames simulated (leader frames plus strip-baseline steps).", nil,
		func(st *runState) int64 { return int64(st.res.Frames) }},
	{"eagleeye_frames_with_targets_total", "Frames whose footprint contained at least one active target.", nil,
		func(st *runState) int64 { return int64(st.res.FramesWithTargets) }},
	{"eagleeye_detections_total", "Detections produced by the onboard ML model.", nil,
		func(st *runState) int64 { return int64(st.res.Detections) }},
	{"eagleeye_clusters_total", "Capture clusters produced by the set-cover step.", nil,
		func(st *runState) int64 { return int64(st.res.Clusters) }},
	{"eagleeye_captures_total", "High-resolution captures executed by followers.", nil,
		func(st *runState) int64 { return int64(st.res.Captures) }},
	{"eagleeye_sched_solves_total", "Scheduling problems solved (one per non-empty leader frame).", nil,
		func(st *runState) int64 { return int64(st.res.SchedSolves) }},
	{"eagleeye_recapture_suppressed_total", "Detections deprioritized by the recapture registry.", nil,
		func(st *runState) int64 { return int64(st.res.RecaptureSuppressed) }},
	// Wire bytes are integral by construction, so the int64 total is exact.
	{"eagleeye_crosslink_bytes_total", "Schedule bytes sent leader-to-follower (wire encoding).", nil,
		func(st *runState) int64 { return int64(st.res.CrosslinkBytes) }},
	{"eagleeye_missed_deadlines_total", "Frames whose compute plus scheduling exceeded the frame cadence (wall-clock dependent).", nil,
		func(st *runState) int64 { return int64(st.res.MissedDeadline) }},
	{"eagleeye_leader_reelections_total", "Leader failures absorbed by re-electing a surviving follower.", nil,
		func(st *runState) int64 { return int64(st.res.LeaderReelections) }},
	{"eagleeye_fault_events_total", faultsHelp, []obs.Label{{Key: "kind", Value: EventFollowerFail.String()}},
		func(st *runState) int64 { return st.cnt[cntFollowerFails] }},
	{"eagleeye_fault_events_total", faultsHelp, []obs.Label{{Key: "kind", Value: EventLeaderFail.String()}},
		func(st *runState) int64 { return st.cnt[cntLeaderFails] }},
	{"eagleeye_sched_fallbacks_total", "Schedules produced by the greedy fallback after the ILP stopped without an incumbent.", nil,
		func(st *runState) int64 { return st.cnt[cntSchedFallbacks] }},
	{"eagleeye_cluster_fallbacks_total", "Frames whose cover fell back from the set-cover ILP to the greedy cover (too many candidates, or the solve failed).", nil,
		func(st *runState) int64 { return st.cnt[cntClusterFallbacks] }},
	{"eagleeye_frame_queries_ahead_total", "Leader frame queries the lookahead goroutine ran ahead of the frame loops (timing-dependent).", nil,
		func(st *runState) int64 { return st.cnt[cntFramesAhead] }},
	{"eagleeye_frame_query_wait_nanoseconds_total", "Wall time frame loops spent waiting for a frame query the lookahead goroutine was running, in nanoseconds.", nil,
		func(st *runState) int64 { return st.cnt[cntQueryWaitNS] }},
	{"eagleeye_index_candidates_total", candidatesHelp, []obs.Label{{Key: "query", Value: queryNames[queryFrame]}},
		func(st *runState) int64 { return st.cnt[cntCandidates+countID(queryFrame)] }},
	{"eagleeye_index_candidates_total", candidatesHelp, []obs.Label{{Key: "query", Value: queryNames[queryCapture]}},
		func(st *runState) int64 { return st.cnt[cntCandidates+countID(queryCapture)] }},
}

const (
	faultsHelp     = "Mid-run fault events applied, by kind."
	candidatesHelp = "Target-index candidates the simulator filters, by query: the width of the index's superset."
)

// The ephemeris advance costs about as much as reading the clock, so
// timing every frame would perturb the measurement and blow the <5%
// enabled-mode overhead budget on empty frames. Every 64th frame is
// timed instead, and the nanosecond total is scaled back up; the
// histogram receives the raw sampled durations.
const (
	ephSampleMask  = 63
	ephSampleShift = 6 // log2(ephSampleMask+1)
)

// simMetrics is the run-wide handle set, resolved once at NewRunner.
type simMetrics struct {
	// counters are the published table's counters, in its order, and
	// reported their totals already added to the registry (Runner.report).
	counters []*obs.Counter
	reported []int64

	// The moving-set index's epoch builds, their wall time wherever they
	// ran, and the part of it queries spent blocked on a build; the runner
	// adds the index's totals after every Advance.
	epochBuilds, epochBuildNS, epochBlockedNS *obs.Counter

	// Checkpoint lifecycle counters, bumped by Runner.Snapshot and
	// RestoreRunner (process-local: a restored process starts at zero).
	checkpointWrites   *obs.Counter
	checkpointRestores *obs.Counter
	checkpointBytes    *obs.Counter

	// Per-stage wall time: a scaled nanosecond total for cheap rate
	// queries plus a histogram of span durations. The frame loops write
	// these per frame.
	stageNS   [numStages]*obs.Counter
	stageHist [numStages]*obs.Histogram

	// Run-level gauges.
	progress        *obs.Gauge
	targetsTotal    *obs.Gauge
	targetsSeen     *obs.Gauge
	targetsCaptured *obs.Gauge

	// Solver stacks, labelled by consumer.
	solverSched   *obs.SolverMetrics
	solverCluster *obs.SolverMetrics
}

func newSimMetrics(r *obs.Registry) *simMetrics {
	m := &simMetrics{
		epochBuilds:        r.Counter("eagleeye_index_epoch_builds_total", "Hourly epochs the moving-target index built."),
		epochBuildNS:       r.Counter("eagleeye_index_epoch_build_nanoseconds_total", "Wall time spent building moving-target index epochs, in nanoseconds, on the frame loops or the prefetch goroutine."),
		epochBlockedNS:     r.Counter("eagleeye_index_epoch_blocked_nanoseconds_total", "Wall time target-index queries spent blocked on an epoch build, in nanoseconds: building it themselves or waiting for the prefetch."),
		checkpointWrites:   r.Counter("eagleeye_checkpoint_writes_total", "Simulation snapshots written."),
		checkpointRestores: r.Counter("eagleeye_checkpoint_restores_total", "Simulation snapshots restored."),
		checkpointBytes:    r.Counter("eagleeye_checkpoint_bytes_total", "Bytes of simulation snapshots written."),
		progress:           r.Gauge("eagleeye_sim_progress", "Simulated-time fraction completed, 0 to 1, set at each span end."),
		targetsTotal:       r.Gauge("eagleeye_targets_total", "Targets in the workload."),
		targetsSeen:        r.Gauge("eagleeye_targets_seen", "Distinct targets seen in low-resolution frames (set at end of run)."),
		targetsCaptured:    r.Gauge("eagleeye_targets_captured", "Distinct targets captured at high resolution (set at end of run)."),
		solverSched:        obs.NewSolverMetrics(r, "sched"),
		solverCluster:      obs.NewSolverMetrics(r, "cluster"),
		counters:           make([]*obs.Counter, len(published)),
		reported:           make([]int64, len(published)),
	}
	for i, p := range published {
		m.counters[i] = r.Counter(p.name, p.help, p.labels...)
	}
	for s := stageID(0); s < numStages; s++ {
		lbl := obs.Label{Key: "stage", Value: stageNames[s]}
		m.stageNS[s] = r.Counter("eagleeye_stage_nanoseconds_total",
			"Wall time inside one pipeline stage, in nanoseconds (ephemeris is sampled 1-in-64 and scaled).", lbl)
		m.stageHist[s] = r.Histogram("eagleeye_stage_seconds",
			"Distribution of per-frame stage wall times, in seconds.", obs.DefTimeBuckets, lbl)
	}
	return m
}

// span records one measured stage duration, ns nanoseconds: the stage's
// nanosecond total plus a histogram sample.
func (m *simMetrics) span(s stageID, ns int64) {
	m.stageNS[s].Add(ns)
	m.stageHist[s].Observe(float64(ns) / 1e9)
}
