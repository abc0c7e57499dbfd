package sim

import (
	"eagleeye/internal/obs"
)

// Observability wiring. When Config.Metrics is nil the simulator holds no
// handles and every instrumentation site reduces to one nil check -- the
// frame loop stays byte-identical to the uninstrumented one (the
// TestFrameLoopAllocs gate). When set, handles are resolved from the
// registry ONCE here, before any job starts; the hot path then performs
// only pre-resolved sharded atomic adds: no map lookups, no allocation,
// no locks.
//
// Determinism: integer event counters (frames, detections, captures, ...)
// are fed from the same per-job accumulators that make the simulation
// itself worker-count-independent, so their totals are identical for any
// Workers value. Timing series (stage seconds) and solver-limit series
// (missed deadlines, B&B nodes, truncations, fallbacks) depend on wall
// clock and machine load and are excluded from that guarantee.

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

// The ephemeris advance costs about as much as reading the clock, so
// timing every frame would perturb the measurement and blow the <5%
// enabled-mode overhead budget on empty frames. Every 64th frame is
// timed instead, and the nanosecond total is scaled back up; the
// histogram receives the raw sampled durations.
const (
	ephSampleMask  = 63
	ephSampleShift = 6 // log2(ephSampleMask+1)
)

// simMetrics is the run-wide handle set, resolved once at Run start.
type simMetrics struct {
	reg *obs.Registry

	// Deterministic event counters (identical totals for any Workers).
	frames              *obs.Counter
	framesWithTargets   *obs.Counter
	detections          *obs.Counter
	clusters            *obs.Counter
	captures            *obs.Counter
	schedSolves         *obs.Counter
	recaptureSuppressed *obs.Counter
	crosslinkBytes      *obs.Counter
	candidates          [numQueries]*obs.Counter
	// epochBuilds counts the moving-set index's epoch builds; the runner
	// adds the index's totals after every Advance.
	epochBuilds *obs.Counter

	// Fault-event counters (deterministic; Config.Events is part of the
	// scenario).
	eventsFollowerFail *obs.Counter
	eventsLeaderFail   *obs.Counter
	leaderReelections  *obs.Counter

	// Checkpoint lifecycle counters, bumped by Runner.Snapshot and
	// RestoreRunner (process-local: a restored process starts at zero).
	checkpointWrites   *obs.Counter
	checkpointRestores *obs.Counter
	checkpointBytes    *obs.Counter

	// Timing- and limit-dependent counters (machine-dependent).
	missedDeadlines  *obs.Counter
	schedFallbacks   *obs.Counter
	clusterFallbacks *obs.Counter // covers not from the set-cover ILP

	// Per-stage wall time: a scaled nanosecond total for cheap rate
	// queries plus a histogram of span durations.
	stageNS   [numStages]*obs.Counter
	stageHist [numStages]*obs.Histogram
	// Epoch-build wall time, wherever the builds ran, and the part of it
	// queries spent blocked on a build.
	epochBuildNS, epochBlockedNS *obs.Counter
	// Frame queries the lookahead helper ran, and the loops' time waiting
	// for one it was running (timing-dependent: the helper's share varies
	// from run to run).
	framesAhead, queryWaitNS *obs.Counter

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
		reg:                 r,
		frames:              r.Counter("eagleeye_frames_total", "Low-resolution frames simulated (leader frames plus strip-baseline steps)."),
		framesWithTargets:   r.Counter("eagleeye_frames_with_targets_total", "Frames whose footprint contained at least one active target."),
		detections:          r.Counter("eagleeye_detections_total", "Detections produced by the onboard ML model."),
		clusters:            r.Counter("eagleeye_clusters_total", "Capture clusters produced by the set-cover step."),
		captures:            r.Counter("eagleeye_captures_total", "High-resolution captures executed by followers."),
		schedSolves:         r.Counter("eagleeye_sched_solves_total", "Scheduling problems solved (one per non-empty leader frame)."),
		recaptureSuppressed: r.Counter("eagleeye_recapture_suppressed_total", "Detections deprioritized by the recapture registry."),
		crosslinkBytes:      r.Counter("eagleeye_crosslink_bytes_total", "Schedule bytes sent leader-to-follower (wire encoding)."),
		eventsFollowerFail:  r.Counter("eagleeye_fault_events_total", "Mid-run fault events applied, by kind.", obs.Label{Key: "kind", Value: "follower-fail"}),
		eventsLeaderFail:    r.Counter("eagleeye_fault_events_total", "Mid-run fault events applied, by kind.", obs.Label{Key: "kind", Value: "leader-fail"}),
		leaderReelections:   r.Counter("eagleeye_leader_reelections_total", "Leader failures absorbed by re-electing a surviving follower."),
		checkpointWrites:    r.Counter("eagleeye_checkpoint_writes_total", "Simulation snapshots written."),
		checkpointRestores:  r.Counter("eagleeye_checkpoint_restores_total", "Simulation snapshots restored."),
		checkpointBytes:     r.Counter("eagleeye_checkpoint_bytes_total", "Bytes of simulation snapshots written."),
		missedDeadlines:     r.Counter("eagleeye_missed_deadlines_total", "Frames whose compute plus scheduling exceeded the frame cadence (wall-clock dependent)."),
		schedFallbacks:      r.Counter("eagleeye_sched_fallbacks_total", "Schedules produced by the greedy fallback after the ILP stopped without an incumbent."),
		clusterFallbacks:    r.Counter("eagleeye_cluster_fallbacks_total", "Frames whose cover fell back from the set-cover ILP to the greedy cover (too many candidates, or the solve failed)."),
		epochBuilds:         r.Counter("eagleeye_index_epoch_builds_total", "Hourly epochs the moving-target index built."),
		epochBuildNS:        r.Counter("eagleeye_index_epoch_build_nanoseconds_total", "Wall time spent building moving-target index epochs, in nanoseconds, on the frame loops or the prefetch goroutine."),
		epochBlockedNS:      r.Counter("eagleeye_index_epoch_blocked_nanoseconds_total", "Wall time target-index queries spent blocked on an epoch build, in nanoseconds: building it themselves or waiting for the prefetch."),
		framesAhead:         r.Counter("eagleeye_frame_queries_ahead_total", "Leader frame queries the lookahead goroutine ran ahead of the frame loops (timing-dependent)."),
		queryWaitNS:         r.Counter("eagleeye_frame_query_wait_nanoseconds_total", "Wall time frame loops spent waiting for a frame query the lookahead goroutine was running, in nanoseconds."),
		progress:            r.Gauge("eagleeye_sim_progress", "Simulated-time fraction completed by the furthest-ahead job, 0 to 1."),
		targetsTotal:        r.Gauge("eagleeye_targets_total", "Targets in the workload."),
		targetsSeen:         r.Gauge("eagleeye_targets_seen", "Distinct targets seen in low-resolution frames (set at end of run)."),
		targetsCaptured:     r.Gauge("eagleeye_targets_captured", "Distinct targets captured at high resolution (set at end of run)."),
		solverSched:         obs.NewSolverMetrics(r, "sched"),
		solverCluster:       obs.NewSolverMetrics(r, "cluster"),
	}
	for q := queryID(0); q < numQueries; q++ {
		m.candidates[q] = r.Counter("eagleeye_index_candidates_total",
			"Target-index candidates the simulator filters, by query: the width of the index's superset.",
			obs.Label{Key: "query", Value: queryNames[q]})
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

// jobMetrics is one job's pre-resolved shard view: every field is a
// direct pointer into a cache-line-private slot, so a frame-loop update
// is a single uncontended atomic add.
type jobMetrics struct {
	m *simMetrics

	frames              obs.CounterShard
	framesWithTargets   obs.CounterShard
	detections          obs.CounterShard
	clusters            obs.CounterShard
	captures            obs.CounterShard
	schedSolves         obs.CounterShard
	recaptureSuppressed obs.CounterShard
	crosslinkBytes      obs.CounterShard
	candidates          [numQueries]obs.CounterShard
	eventsFollowerFail  obs.CounterShard
	eventsLeaderFail    obs.CounterShard
	leaderReelections   obs.CounterShard
	missedDeadlines     obs.CounterShard
	schedFallbacks      obs.CounterShard
	clusterFallbacks    obs.CounterShard
	framesAhead         obs.CounterShard
	queryWaitNS         obs.CounterShard

	stageNS   [numStages]obs.CounterShard
	stageHist [numStages]obs.HistogramShard
}

// job builds the shard view for job index i. Shard indices wrap inside
// obs, so any job count works against the fixed shard pool.
func (m *simMetrics) job(i int) *jobMetrics {
	jm := &jobMetrics{
		m:                   m,
		frames:              m.frames.Shard(i),
		framesWithTargets:   m.framesWithTargets.Shard(i),
		detections:          m.detections.Shard(i),
		clusters:            m.clusters.Shard(i),
		captures:            m.captures.Shard(i),
		schedSolves:         m.schedSolves.Shard(i),
		recaptureSuppressed: m.recaptureSuppressed.Shard(i),
		crosslinkBytes:      m.crosslinkBytes.Shard(i),
		eventsFollowerFail:  m.eventsFollowerFail.Shard(i),
		eventsLeaderFail:    m.eventsLeaderFail.Shard(i),
		leaderReelections:   m.leaderReelections.Shard(i),
		missedDeadlines:     m.missedDeadlines.Shard(i),
		schedFallbacks:      m.schedFallbacks.Shard(i),
		clusterFallbacks:    m.clusterFallbacks.Shard(i),
		framesAhead:         m.framesAhead.Shard(i),
		queryWaitNS:         m.queryWaitNS.Shard(i),
	}
	for q := queryID(0); q < numQueries; q++ {
		jm.candidates[q] = m.candidates[q].Shard(i)
	}
	for s := stageID(0); s < numStages; s++ {
		jm.stageNS[s] = m.stageNS[s].Shard(i)
		jm.stageHist[s] = m.stageHist[s].Shard(i)
	}
	return jm
}

// span records one measured stage duration: scaled ns total plus the
// raw histogram sample. d is in nanoseconds (time.Duration's unit).
func (jm *jobMetrics) span(s stageID, ns int64) {
	jm.stageNS[s].Add(ns)
	jm.stageHist[s].Observe(float64(ns) / 1e9)
}
