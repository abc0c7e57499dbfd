// Package sim is the orbital-edge-computing simulator that drives the
// evaluation: the equivalent of the cote simulator the paper's prototype
// uses (§5.1). It propagates a constellation over a target world for a
// configurable duration, runs the EagleEye leader pipeline on every
// low-resolution frame (detection, clustering, actuation-aware
// scheduling), executes follower schedules with full actuation and
// off-nadir constraints, and accounts coverage, runtime, communication and
// energy -- everything the paper's figures report.
//
// Baselines share the same machinery: Low-Res-Only and High-Res-Only
// constellations reduce to nadir strip coverage; the mix-camera variant
// reuses the leader pipeline with the satellite scheduling itself after
// its own compute delay (Fig. 9/13).
//
// Long-horizon runs are first-class: Runner exposes the same simulation
// as a windowed stepper with versioned binary snapshots (Snapshot /
// RestoreRunner), Config.Events injects mid-run faults at frame
// boundaries, and per-frame accumulation is O(1) in the duration (the
// per-image target distribution is a fixed-bucket ImageTargetHist, not a
// slice).
package sim

import (
	"io"
	"math"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/camera"
	"eagleeye/internal/comms"
	"eagleeye/internal/constellation"
	"eagleeye/internal/core"
	"eagleeye/internal/dataset"
	"eagleeye/internal/detect"
	"eagleeye/internal/energy"
	"eagleeye/internal/geo"
	"eagleeye/internal/obs"
	"eagleeye/internal/sched"
)

// DefaultEpoch anchors all simulations; fixing it keeps every experiment
// reproducible.
var DefaultEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Config describes one simulation run.
type Config struct {
	// Constellation is the organization under test.
	Constellation constellation.Config
	// App is the target workload.
	App *dataset.Set
	// Scheduler schedules followers; nil means the ILP scheduler with
	// per-group temporal-coherence state (see DisableWarmStart).
	Scheduler sched.Scheduler
	// DisableWarmStart turns off the cross-frame warm-start pipeline of
	// the default schedulers: per-leader solver state, previous-schedule
	// projection, LP basis reuse, and incremental model construction. The
	// escape hatch exists for A/B measurement and as a safety valve; it
	// only applies when Scheduler is nil.
	DisableWarmStart bool
	// Detector is the leader's ML model; zero means YoloN.
	Detector detect.Model
	// Tiling is the frame decomposition; zero means PaperTiling.
	Tiling detect.Tiling
	// NoClustering disables target clustering (Fig. 14c ablation).
	NoClustering bool
	// ClusterGreedy forces the greedy cover (clustering ablation).
	ClusterGreedy bool
	// RecallOverride in (0,1] overrides detector recall (Fig. 15).
	RecallOverride float64
	// DurationS is the simulated span; 0 means 24 h.
	DurationS float64
	// Seed drives all stochastic components.
	Seed int64
	// SlewRateDegS overrides the ADACS rate; 0 means the paper's 3 deg/s.
	SlewRateDegS float64
	// ComputeDelayS overrides the modeled leader compute latency
	// (mix-camera sensitivity, Fig. 13); 0 means model the tiling latency.
	ComputeDelayS float64
	// ValidateSchedules re-checks every schedule against C1-C3 (slower;
	// used by tests).
	ValidateSchedules bool
	// RecaptureDedup enables the §4.7 recapture extension: each leader
	// deprioritizes detections at ground positions its own group has
	// already captured at high resolution, freeing follower time for new
	// targets. The registry is per group -- sharing it across groups would
	// require inter-group communication the constellation does not have.
	RecaptureDedup bool
	// Events schedules mid-run faults (satellite failures, leader
	// re-election); see Event. They fire at frame boundaries, are
	// validated against the built constellation, and are part of the
	// scenario identity a snapshot is checked against.
	Events []Event
	// Trace, when non-nil, receives one JSON line per processed leader
	// frame (see TraceRecord). Records are emitted in group order, frames
	// in time order within each group, regardless of Workers. A Runner
	// advanced in several windows applies that order per window and
	// writes the windows one after another (window-major; see Runner).
	Trace io.Writer
	// Metrics, when non-nil, receives run metrics: event counters,
	// per-stage wall-time breakdowns, solver activity, and progress
	// gauges (see internal/obs and the README metrics table). Handles
	// are resolved once before the first frame; a nil registry leaves
	// the frame loop byte-identical to the uninstrumented simulator.
	// Event counters advance at span ends (see Runner.Advance), not per
	// frame: only stage timings are written per frame. Integer event
	// counters are deterministic across Workers; timing and solver-limit
	// series are machine-dependent. The registry feeds
	// the default ILP scheduler's solver counters; a custom Scheduler
	// must accept its own mip.Options.Metrics to be counted.
	Metrics *obs.Registry
	// Flight, when non-nil, records per-frame span trees into the flight
	// recorder: a bounded ring of recent frames, top-K retention by
	// duration, and anomaly-triggered pinning (solver fallback,
	// warm-start reject, dual-repair failure, refactorization alarm,
	// deadline miss, fault event). Like Metrics, the handle is resolved
	// once per job before the first frame and a nil recorder leaves the
	// frame loop byte-identical to the unrecorded simulator. Only frames
	// that reach the detect/schedule pipeline are recorded; empty frames
	// are skipped, and fault events pin synthetic records of their own.
	Flight *obs.FlightRecorder
	// Workers bounds the concurrent goroutines executing per-group
	// (leader-follower, mix-camera) or per-satellite (strip-coverage)
	// jobs. 0 means runtime.GOMAXPROCS(0); 1 runs sequentially. Every
	// job works against private accumulators and a deterministic merge
	// folds them in group order, so the Result and trace are identical
	// for any worker count at a fixed seed (timing-derived fields --
	// scheduler wall clock and deadline misses -- excepted). A custom
	// Scheduler must be safe for concurrent use when Workers != 1. A run
	// uses up to two helper goroutines beyond Workers (see
	// Runner.Advance): on a moving set that advances past an hour
	// boundary, the epoch prefetch, which builds the next hour's index
	// epoch while this hour's frames run (builds run outside the index's
	// lock, so one group's build does not hold up the other groups'
	// queries); and on group organizations, the frame-query lookahead,
	// which runs the leaders' frame queries ahead of the frame loops.
	// The lookahead starts only for a run of two or more groups whose
	// worker pool (Workers, capped at the job count) is smaller than
	// GOMAXPROCS, so it has a P to itself; it never starts when
	// GOMAXPROCS is 1.
	Workers int
}

// Result aggregates one run.
type Result struct {
	Kind string // constellation organization
	App  string

	TotalTargets    int
	HighResCaptured int // distinct targets inside captured high-res images
	LowResSeen      int // distinct targets inside leader low-res frames

	Frames            int
	FramesWithTargets int
	Detections        int
	Clusters          int
	Captures          int

	// TargetsPerImage holds the distribution of per-nonempty-frame truth
	// target counts (Fig. 12b's CDF) as a fixed-bucket histogram, so
	// week-long runs accumulate O(1) result state instead of a per-frame
	// slice.
	TargetsPerImage ImageTargetHist

	SchedSolves    int
	SchedWallTotal time.Duration
	SchedWallMax   time.Duration
	MissedDeadline int // frames whose compute+scheduling exceeded the cadence

	// Solver cost aggregates: branch-and-bound nodes and simplex
	// iterations summed over all scheduling and clustering ILP solves,
	// and the wall time spent inside the LP pivot loop. They make solver
	// load visible without a profiler; per-frame values are in the trace.
	SchedNodes       int
	SchedIters       int
	SchedPivotWall   time.Duration
	ClusterNodes     int
	ClusterIters     int
	ClusterPivotWall time.Duration

	// RecaptureSuppressed counts detections deprioritized by the §4.7
	// recapture extension.
	RecaptureSuppressed int

	// Fault-event accounting (Config.Events): events applied so far,
	// satellites lost to them, and leader re-elections performed.
	EventsApplied     int
	SatsFailed        int
	LeaderReelections int

	// CrosslinkBytes is the total schedule traffic leaders sent (wire
	// encoding, §5.3 bound enforced per message).
	CrosslinkBytes float64
	// DownlinkableFraction is the share of captured images the followers'
	// per-orbit ground contact can actually return to Earth.
	DownlinkableFraction float64

	LeaderBudget   *energy.Budget // per-orbit average, leader/mono role
	FollowerBudget *energy.Budget // per-orbit average across followers
}

// CoveragePct returns the headline metric: the percentage of targets
// captured at high resolution (for Low-Res-Only, the percentage seen at
// low resolution -- the paper plots it as the physical upper bound, noting
// it does not deliver high-resolution data).
func (r *Result) CoveragePct() float64 {
	if r.TotalTargets == 0 {
		return 0
	}
	n := r.HighResCaptured
	if r.Kind == constellation.LowResOnly.String() {
		n = r.LowResSeen
	}
	return 100 * float64(n) / float64(r.TotalTargets)
}

// LowResSeenPct returns the fraction of targets seen in low-resolution.
func (r *Result) LowResSeenPct() float64 {
	if r.TotalTargets == 0 {
		return 0
	}
	return 100 * float64(r.LowResSeen) / float64(r.TotalTargets)
}

// Run executes the simulation in one shot: a Runner advanced straight to
// the configured duration. Windowed advancement, snapshots and restore
// are on the Runner itself.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Advance(r.cfg.DurationS); err != nil {
		return nil, err
	}
	return r.Result()
}

// runState carries one job's private simulation state. Every group (or
// strip satellite) gets its own instance, so jobs run concurrently
// without synchronization; mergeInto folds them back deterministically.
type runState struct {
	cfg      Config
	cons     *constellation.Constellation
	res      *Result
	captured targetBits
	seen     targetBits
	leaderB  *energy.Budget
	folB     *energy.Budget
	// capCells is the recapture registry: ~2 km ground cells this group
	// already captured at high resolution (used when cfg.RecaptureDedup
	// is set).
	capCells map[int64]bool
	// trace buffers this job's frame records for the current window; the
	// Runner drains them in group order at every Advance boundary. traceOn
	// gates the staging entirely: most runs pass no Trace writer and
	// should not pay for record assembly (CoveredIDs in particular
	// allocates). traceEmitted counts records already drained to the sink
	// -- the trace cursor a snapshot preserves.
	trace        []TraceRecord
	traceOn      bool
	traceEmitted int64
	// cnt holds the job's counts that only the registry reports (see
	// published); the runner publishes them with the Result's at span
	// ends. They are not snapshotted: a restored runner reports only what
	// it runs after the restore.
	cnt [numCounts]int64
	// met is the run's registry handles, nil (the common case) without a
	// registry; the frame loop writes only its stage timings there.
	met *simMetrics
	// fb is this job's flight-recorder arena (cfg.Flight.Builder()); nil
	// disables span recording the same way a nil met disables metrics.
	fb *obs.FrameBuilder

	// Frame-loop scratch, private to the job's goroutine and dead between
	// frames: q (which also holds the job's only pointer to the shared
	// index) for the frames the loop queries itself and for capture
	// queries, scFols for the schedule's followers. The buffers grow to
	// the run's high-water mark and are then reused, which is what keeps
	// the steady-state loop allocation-free; nothing downstream retains
	// them (detect copies positions, schedules copy aim points).
	q      queryScratch
	scFols []sched.Follower
}

// queryScratch is one goroutine's scratch for target-index queries: the
// frame loop's, or the lookahead helper's (see lookahead). idx and pts
// collect filterInFrame's survivors; their owner resets them.
type queryScratch struct {
	index *dataset.TimedIndex // shared; safe for concurrent readers
	cands []int32
	kept  []int32
	inPts []geo.Point2
	idx   []int32
	pts   []geo.Point2
	order dataset.OrderScratch
}

// newRunState allocates a private accumulator set for one job.
func newRunState(cfg Config, cons *constellation.Constellation, index *dataset.TimedIndex) *runState {
	return &runState{
		cfg:      cfg,
		cons:     cons,
		res:      &Result{},
		captured: newTargetBits(len(cfg.App.Targets)),
		seen:     newTargetBits(len(cfg.App.Targets)),
		leaderB:  energy.NewBudget(energyParams(cfg)),
		folB:     energy.NewBudget(energyParams(cfg)),
		capCells: make(map[int64]bool),
		traceOn:  cfg.Trace != nil,
		q:        queryScratch{index: index},
	}
}

// release drops the job's per-target flags and query scratch when its
// runner closes.
func (st *runState) release() {
	st.captured, st.seen, st.capCells = nil, nil, nil
	st.q = queryScratch{}
}

// mergeInto folds this job's private accumulators into dst. Callers
// invoke it in job order; every reduction below is either
// order-insensitive (counters, bitmap unions, maxima) or explicitly
// ordered by that call sequence (budget additions), which is what makes
// parallel runs byte-identical to sequential ones.
func (st *runState) mergeInto(dst *runState) {
	r, p := dst.res, st.res
	r.Frames += p.Frames
	r.FramesWithTargets += p.FramesWithTargets
	r.Detections += p.Detections
	r.Clusters += p.Clusters
	r.Captures += p.Captures
	r.TargetsPerImage.Merge(&p.TargetsPerImage)
	r.SchedSolves += p.SchedSolves
	r.SchedWallTotal += p.SchedWallTotal
	if p.SchedWallMax > r.SchedWallMax {
		r.SchedWallMax = p.SchedWallMax
	}
	r.MissedDeadline += p.MissedDeadline
	r.SchedNodes += p.SchedNodes
	r.SchedIters += p.SchedIters
	r.SchedPivotWall += p.SchedPivotWall
	r.ClusterNodes += p.ClusterNodes
	r.ClusterIters += p.ClusterIters
	r.ClusterPivotWall += p.ClusterPivotWall
	r.RecaptureSuppressed += p.RecaptureSuppressed
	r.EventsApplied += p.EventsApplied
	r.SatsFailed += p.SatsFailed
	r.LeaderReelections += p.LeaderReelections
	r.CrosslinkBytes += p.CrosslinkBytes
	dst.captured.or(st.captured)
	dst.seen.or(st.seen)
	dst.leaderB.Add(st.leaderB)
	dst.folB.Add(st.folB)
}

// capCellKey quantizes a geodetic position into the recapture registry.
func capCellKey(p geo.LatLon) int64 {
	const cellDeg = 0.02 // ~2 km
	r := int64(math.Floor((p.Lat + 90) / cellDeg))
	c := int64(math.Floor((geo.WrapLonDeg(p.Lon) + 180) / cellDeg))
	return r*1000000 + c
}

func energyParams(cfg Config) energy.Params {
	p := energy.Paper3U()
	if cfg.SlewRateDegS > 0 {
		p.SlewRateDegS = cfg.SlewRateDegS
	}
	return p
}

func (st *runState) slewModel() adacs.SlewModel {
	m := adacs.PaperSlew()
	if st.cfg.SlewRateDegS > 0 {
		m.RateDegS = st.cfg.SlewRateDegS
	}
	return m
}

// frameRadius returns the candidate-query radius covering a w x h frame
// plus detection jitter and target-motion margin.
func frameRadius(w, h float64) float64 {
	return math.Hypot(w, h)/2 + 5e3
}

// timed reports whether the job's frames are timed: whether a registry
// or a flight recorder takes their stage timings.
func (st *runState) timed() bool { return st.met != nil || st.fb != nil }

// countEvent counts one applied fault event of kind k.
func (st *runState) countEvent(k EventKind) {
	st.res.EventsApplied++
	if k == EventLeaderFail {
		st.cnt[cntLeaderFails]++
	} else {
		st.cnt[cntFollowerFails]++
	}
}

// near refills the candidate scratch with index entries near p: for a
// moving set a superset in no bucket order (TimedIndex.NearInto), which
// callers that only set flags use as it is. An empty result lets a frame
// query skip tangent-frame setup entirely.
func (sc *queryScratch) near(p geo.LatLon, radiusM, ts float64) []int32 {
	sc.cands = sc.index.NearInto(p, radiusM, ts, sc.cands[:0])
	return sc.cands
}

// filterInFrame reduces near(p, radiusM, ts)'s result to (targetIndex,
// local position) pairs for active targets inside the w x h footprint of
// f, appends them to the idx/pts scratch, and returns what it appended.
// They come in the order the index's bucket-start walk lists them
// (TimedIndex.Order), since detection draws its RNG per truth target in
// that order. Candidates farther than frameRadius from the frame origin
// are rejected on great-circle distance before the tangent-frame
// projection: any point inside the rectangle lies within hypot(w,h)/2 of
// the center up to curvature error (~1e-4 relative at frame scale), far
// inside the 5 km margin, and ToLocal costs several times a distance.
// Moving targets are first rejected by chord distance from their cached
// course (TimedIndex.Outside), which never rejects a point within
// frameRadius, before any exact position is computed.
func (sc *queryScratch) filterInFrame(cands []int32, p geo.LatLon, radiusM float64, f geo.TangentFrame, w, h float64, ts float64) ([]int32, []geo.Point2) {
	kept := sc.kept[:0]
	inPts := sc.inPts[:0]
	maxD := frameRadius(w, h)
	disk := dataset.NewCap(f.Origin, maxD)
	targets := sc.index.Set().Targets
	for _, ci := range cands {
		if !targets[ci].ActiveAt(ts) || sc.index.Outside(ci, ts, &disk) {
			continue
		}
		pos := targets[ci].PosAt(ts)
		if geo.GreatCircleDistance(pos, f.Origin) > maxD {
			continue
		}
		lp := f.ToLocal(pos)
		if math.Abs(lp.X) <= w/2 && math.Abs(lp.Y) <= h/2 {
			kept = append(kept, ci)
			inPts = append(inPts, lp)
		}
	}
	sc.kept, sc.inPts = kept, inPts
	n := len(sc.idx)
	idx, pts := sc.idx, sc.pts
	for _, k := range sc.index.Order(kept, p, radiusM, ts, &sc.order) {
		idx = append(idx, kept[k])
		pts = append(pts, inPts[k])
	}
	sc.idx, sc.pts = idx, pts
	return idx[n:len(idx):len(idx)], pts[n:len(pts):len(pts)]
}

func highResSwath(grp constellation.Group, leader *constellation.Satellite) float64 {
	if len(grp.Followers) > 0 {
		return grp.Followers[0].HighRes.SwathM
	}
	return leader.HighRes.SwathM
}

// validateAgainstPipeline reconstructs the scheduling problem from the
// pipeline output and re-checks constraints C1-C3.
func validateAgainstPipeline(fres *core.Result, fols []sched.Follower, env sched.Env) error {
	var targets []sched.Target
	if len(fres.Clusters) > 0 {
		for i, c := range fres.Clusters {
			val := 0.0
			for _, m := range c.Members {
				val += fres.Detections[m].Confidence
			}
			targets = append(targets, sched.Target{ID: i, Pos: c.Center(), Value: val})
		}
	} else {
		for i, d := range fres.Detections {
			targets = append(targets, sched.Target{ID: i, Pos: d.Pos, Value: d.Confidence})
		}
	}
	prob := &sched.Problem{Env: env, Targets: targets, Followers: fols}
	return sched.ValidateSchedule(prob, &fres.Schedule)
}

// frameSeed derives a deterministic per-frame RNG seed.
func frameSeed(seed int64, group, frame int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(group)*0xBF58476D1CE4E5B9 + uint64(frame)*0x94D049BB133111EB
	h ^= h >> 31
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// finalizeComms computes how much of the elapsed span's captured imagery
// the downlink can return: followers see a ground station ~6 min/orbit
// (§5.3), and each high-resolution image is ~33 MB.
func (st *runState) finalizeComms(elapsedS float64) {
	if st.res.Captures == 0 {
		st.res.DownlinkableFraction = 1
		return
	}
	nFollowers := 0
	for _, g := range st.cons.Groups {
		nFollowers += len(g.Followers)
		if len(g.Followers) == 0 {
			nFollowers++ // mix-camera: the satellite downlinks its own captures
		}
	}
	link := comms.PaperDownlink()
	orbits := elapsedS / (94 * 60)
	if orbits < 1 {
		orbits = 1
	}
	hr := camera.PaperHighRes()
	imgBytes := comms.ImageBytes(hr.FramePixels(), 3)
	capacityImages := link.CapacityPerOrbitBytes() / imgBytes * orbits * float64(nFollowers)
	frac := capacityImages / float64(st.res.Captures)
	if frac > 1 {
		frac = 1
	}
	st.res.DownlinkableFraction = frac
}

// finalizeEnergy converts accumulated totals into per-orbit averages over
// the elapsed span.
func (st *runState) finalizeEnergy(elapsedS float64) {
	period := 94 * 60.0
	orbits := elapsedS / period
	if orbits <= 0 {
		orbits = 1
	}
	scale := func(b *energy.Budget, n float64) *energy.Budget {
		if n <= 0 {
			n = 1
		}
		out := energy.NewBudget(b.Params)
		out.CameraJ = b.CameraJ / orbits / n
		out.ADACSJ = b.ADACSJ/orbits/n + b.Params.ADACSIdleW*period
		out.ComputeJ = b.ComputeJ / orbits / n
		out.TXJ = b.TXJ / orbits / n
		out.CrosslinkJ = b.CrosslinkJ / orbits / n
		return out
	}
	nLeaders := float64(len(st.cons.Groups))
	nFollowers := 0.0
	for _, g := range st.cons.Groups {
		nFollowers += float64(len(g.Followers))
		if g.Leader.Role == constellation.RoleMono && !g.Leader.HasLowRes() {
			// High-Res-Only strip satellites book capture energy to the
			// follower-role budget (they point-and-shoot, never detect).
			nFollowers++
		}
	}
	st.res.LeaderBudget = scale(st.leaderB, nLeaders)
	st.res.FollowerBudget = scale(st.folB, nFollowers)
	// Image-producing satellites downlink the captured imagery
	// (6 min/orbit contact): followers, and high-res strip monos.
	if nFollowers > 0 {
		st.res.FollowerBudget.Downlink(6 * 60)
	}
}
