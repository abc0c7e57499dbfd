package sim

import (
	"fmt"
	"io"
	"math"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/detect"
)

// Runner is the windowed form of the simulator: the same deterministic
// parallel machinery as Run, exposed as an advanceable object so callers
// can interleave simulation with snapshots, trace-sink swaps, and
// mid-horizon queries. Advancing to the full duration in one window is
// exactly Run; advancing in any sequence of windows produces the same
// Result and trace records, because jobs keep their steppers, solver
// warm-start state and accumulators live between windows and the ordered
// merge is repeated from scratch at every Result call. Records are written
// at each window boundary in group order, so with several groups a
// windowed trace interleaves them window by window where a one-shot trace
// lists each group's frames in one run.
//
// A Runner is not safe for concurrent use; one goroutine drives it.
type Runner struct {
	cfg    Config
	cons   *constellation.Constellation
	index  *dataset.TimedIndex
	sm     *simMetrics
	jobs   []simJob
	ahead  lookahead
	tw     *traceWriter
	nowS   float64
	digest uint64 // scenarioDigest's cache, valid once hashed is set
	hashed bool
	failed error
	closed bool
	// indexSeen is the index's epoch-build totals already added to the
	// registry.
	indexSeen dataset.EpochStats
}

// simJob is one persistent unit of parallel work: a leader group or a
// strip satellite.
type simJob interface {
	state() *runState
	// run advances the job's frame loop to the window boundary.
	run(untilS float64) error
	// finalize books duration-derived accounting for the elapsed span
	// into the aggregate (called once per Result, in job order).
	finalize(agg *runState, elapsedS float64)
	// snapExtra / restoreExtra serialize the job's non-accumulator
	// cursors (frame count, event cursor); everything else is replayed.
	snapExtra(bw *binWriter)
	restoreExtra(br *binReader) error
	// verifyReplay checks the post-restore replay landed exactly on the
	// snapshot's frame cursor.
	verifyReplay() error
	close()
}

// NewRunner validates the configuration, builds the constellation and
// the per-job state, and positions the simulation at t=0. Close must be
// called when done (Run does; Session and server own long-lived runners).
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("sim: no app workload")
	}
	if cfg.DurationS == 0 {
		cfg.DurationS = 86400
	}
	if cfg.Detector.PerTileS == 0 {
		cfg.Detector = detect.YoloN()
	}
	if cfg.Tiling.FramePx == 0 {
		cfg.Tiling = detect.PaperTiling()
	}
	cons, err := constellation.Build(cfg.Constellation, DefaultEpoch)
	if err != nil {
		return nil, err
	}
	switch cons.Config.Kind {
	case constellation.LowResOnly, constellation.HighResOnly,
		constellation.LeaderFollower, constellation.MixCamera:
	default:
		return nil, fmt.Errorf("sim: unsupported kind %v", cons.Config.Kind)
	}
	perJob, err := validateEvents(cfg.Events, cons)
	if err != nil {
		return nil, err
	}

	var sm *simMetrics
	if cfg.Metrics != nil {
		sm = newSimMetrics(cfg.Metrics)
	}
	r := &Runner{
		cfg:  cfg,
		cons: cons,
		// The timed index is the only state shared between jobs; it is
		// safe for concurrent readers.
		index: dataset.NewTimedIndex(cfg.App, 2, 600),
		sm:    sm,
		tw:    newTraceWriter(cfg.Trace),
	}
	r.ahead.sc.index = r.index

	newState := func() *runState {
		st := newRunState(cfg, cons, r.index)
		st.met = sm
		if cfg.Flight != nil {
			// One builder (span arena) per job: Start/Add run on the
			// job's goroutine, only the finished tree is offered under
			// the recorder's mutex.
			st.fb = cfg.Flight.Builder()
		}
		return st
	}
	switch cons.Config.Kind {
	case constellation.LowResOnly, constellation.HighResOnly:
		for si, sat := range cons.Sats {
			r.jobs = append(r.jobs, newStripJob(newState(), si, sat, perJob[si]))
		}
	default:
		for gi := range cons.Groups {
			r.jobs = append(r.jobs, newGroupJob(newState(), gi, cons.Groups[gi], perJob[gi]))
		}
	}
	if sm != nil {
		sm.targetsTotal.Set(float64(len(cfg.App.Targets)))
	}
	return r, nil
}

// scenarioDigest returns the digest of the scenario identity a snapshot
// is checked against (configDigest). It hashes every target, which costs
// more than the rest of NewRunner, and only Snapshot and RestoreRunner
// need it, so it is computed on first use.
func (r *Runner) scenarioDigest() uint64 {
	if !r.hashed {
		r.digest = configDigest(r.cfg, r.cons)
		r.hashed = true
	}
	return r.digest
}

// hourS is the span Advance runs between index retirements and
// prefetches: one epoch of the moving-set index, which the runner builds
// with 600 s buckets.
const hourS = 3600.0

// Now returns the simulated time the runner has advanced to.
func (r *Runner) Now() float64 { return r.nowS }

// Duration returns the configured total simulated span.
func (r *Runner) Duration() float64 { return r.cfg.DurationS }

// Done reports whether the runner has reached the configured duration.
func (r *Runner) Done() bool { return r.nowS >= r.cfg.DurationS }

// SetTrace swaps the trace sink at a window boundary. Frames processed
// from the next Advance on are staged and written to w; nil disables
// tracing. Records already written to a previous sink are not repeated.
func (r *Runner) SetTrace(w io.Writer) {
	r.tw = newTraceWriter(w)
	on := w != nil
	for _, j := range r.jobs {
		j.state().traceOn = on
	}
}

// workerCount resolves the effective pool size for this runner.
func (r *Runner) workerCount() int {
	return poolWorkers(r.cfg.Workers, len(r.jobs))
}

// Advance runs every job forward so all frames strictly before untilS
// are processed, then drains the staged trace records in job order.
// untilS is clamped to the configured duration; a boundary at or before
// the current position is a no-op. The jobs run hour by hour (a job that
// fails skips the later hours), and the index retires its epochs behind
// each hour, so a long one-shot Advance holds no more index state than a
// windowed run. After each hour, or the shorter span that ends the
// window, the runner publishes the jobs' counts to the registry (see
// report). While an hour's frames run, a helper goroutine builds the
// next hour's epoch, if the run has frames in that hour (it starts before
// the configured duration), so epoch builds stay off the frame loops'
// path, and another runs the group jobs' frame queries ahead of their
// loops (see lookahead), joined before the hour's epochs retire. On a job
// error the simulation is poisoned (every later call returns the same
// error), but completed jobs' staged trace records -- and the failing
// job's prefix -- are still written, so an aborted long run keeps its
// trace.
func (r *Runner) Advance(untilS float64) error {
	if r.closed {
		return fmt.Errorf("sim: runner is closed")
	}
	if r.failed != nil {
		return r.failed
	}
	if math.IsNaN(untilS) {
		return fmt.Errorf("sim: advance to NaN")
	}
	if untilS > r.cfg.DurationS {
		untilS = r.cfg.DurationS
	}
	if untilS > r.nowS {
		errs := make([]error, len(r.jobs))
		for from := r.nowS; from < untilS; {
			to := (math.Floor(from/hourS) + 1) * hourS
			if to < r.cfg.DurationS {
				r.index.Prefetch(to)
			}
			if !(to > from && to < untilS) {
				to = untilS
			}
			r.runSpan(to, errs)
			r.report(to)
			// Every later frame, and every capture it schedules, is at or
			// after to: index epochs that end by then are dead weight.
			r.index.Retire(to)
			from = to
		}
		r.nowS = untilS
		if r.Done() {
			// Every prefetched epoch starts before the end, where frames
			// wait for it, so this returns at once unless no frame reached
			// one; it keeps the build totals complete at the end of a run.
			r.index.Wait()
		}
		r.reportIndex()
		r.drainTraces()
		// First error in job order, not completion order, so parallel
		// runs report the same error as sequential ones.
		for _, err := range errs {
			if err != nil {
				r.failed = err
				return err
			}
		}
	}
	if err := r.tw.Err(); err != nil {
		err = fmt.Errorf("sim: trace: %w", err)
		r.failed = err
		return err
	}
	return nil
}

// runSpan runs every job that has not failed to the span boundary to,
// while the lookahead helper, when it starts, runs the group jobs' frame
// queries ahead of them on a P the worker pool leaves idle. The helper is
// joined before runSpan returns, so no query runs beside what follows.
func (r *Runner) runSpan(to float64, errs []error) {
	workers := r.workerCount()
	if r.ahead.start(r.jobs, errs, to, workers) {
		defer r.ahead.wait()
	}
	runParallel(workers, len(r.jobs), func(i int) {
		if errs[i] == nil {
			errs[i] = r.jobs[i].run(to)
		}
	})
}

// report publishes the span that ended at to: it adds the growth of the
// jobs' accumulators since the last report to the published counters and
// moves the progress gauge to to. The span's jobs have returned, so their
// accumulators are quiescent; summing them in job order allocates
// nothing.
func (r *Runner) report(to float64) {
	if r.sm == nil {
		return
	}
	for i, p := range published {
		t := r.total(p.read)
		r.sm.counters[i].Add(t - r.sm.reported[i])
		r.sm.reported[i] = t
	}
	r.sm.progress.SetMax(to / r.cfg.DurationS)
}

// total sums read over the jobs' accumulators.
func (r *Runner) total(read func(*runState) int64) int64 {
	t := int64(0)
	for _, j := range r.jobs {
		t += read(j.state())
	}
	return t
}

// reportIndex adds the index's epoch-build totals since the last report
// to the registry.
func (r *Runner) reportIndex() {
	if r.sm == nil {
		return
	}
	st := r.index.EpochStats()
	r.sm.epochBuilds.Add(st.Builds - r.indexSeen.Builds)
	r.sm.epochBuildNS.Add(st.BuildNS - r.indexSeen.BuildNS)
	r.sm.epochBlockedNS.Add(st.BlockedNS - r.indexSeen.BlockedNS)
	r.indexSeen = st
}

// drainTraces writes the jobs' staged records in job order, flushing at
// every frame-group boundary so a consumer (or a crash) mid-emission
// observes whole groups rather than a truncated 64 KiB tail.
func (r *Runner) drainTraces() {
	for _, j := range r.jobs {
		st := j.state()
		for _, rec := range st.trace {
			r.tw.emit(rec)
		}
		st.traceEmitted += int64(len(st.trace))
		st.trace = st.trace[:0]
		r.tw.flush()
	}
}

// Result aggregates the simulation up to the current position. It is
// repeatable -- the ordered merge runs from scratch against the live job
// accumulators -- and at the full duration it is byte-identical to what
// the one-shot Run returns.
func (r *Runner) Result() (*Result, error) {
	if r.failed != nil {
		return nil, r.failed
	}
	if r.closed {
		return nil, fmt.Errorf("sim: runner is closed")
	}
	res := &Result{
		Kind:         r.cons.Config.Kind.String(),
		App:          r.cfg.App.Name,
		TotalTargets: len(r.cfg.App.Targets),
	}
	// Deterministic merge: fold private accumulators in job order, so a
	// parallel run reduces exactly like the sequential one.
	agg := newRunState(r.cfg, r.cons, r.index)
	agg.res = res
	for _, j := range r.jobs {
		j.state().mergeInto(agg)
		j.finalize(agg, r.nowS)
	}
	res.HighResCaptured = agg.captured.count()
	res.LowResSeen = agg.seen.count()
	agg.finalizeEnergy(r.nowS)
	agg.finalizeComms(r.nowS)
	if r.sm != nil {
		if r.Done() {
			r.sm.progress.Set(1)
		}
		r.sm.targetsSeen.Set(float64(res.LowResSeen))
		r.sm.targetsCaptured.Set(float64(res.HighResCaptured))
	}
	return res, nil
}

// Close releases pooled solver state and the run's storage: the index's
// courses and epochs, the jobs' coverage flags and query scratch, and
// the lookahead's buffers, so nothing that still points at the runner
// keeps them alive. It waits for an epoch build still running on the
// helper goroutine and adds it to the registry. It is idempotent; the
// runner is unusable afterwards, and every entry point refuses it.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.index.Wait()
	r.reportIndex()
	r.index.Release()
	for _, j := range r.jobs {
		j.close()
		j.state().release()
	}
	r.ahead.sc, r.ahead.jobs = queryScratch{}, nil
}
