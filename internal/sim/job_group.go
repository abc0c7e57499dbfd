package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/cluster"
	"eagleeye/internal/comms"
	"eagleeye/internal/constellation"
	"eagleeye/internal/core"
	"eagleeye/internal/dataset"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/obs"
	"eagleeye/internal/orbit"
	"eagleeye/internal/sched"
)

// groupJob runs one group of the EagleEye operating model (or the
// mix-camera variant, where the "follower" is the leader itself after its
// compute delay). Groups are independent by construction -- each leader
// has its own followers and ground track -- so a job only touches its
// private runState and the concurrency-safe shared index.
//
// The job is persistent: run(untilS) advances the frame loop to a window
// boundary and returns, keeping steppers, solver warm-start state and the
// event cursor live between windows. That is what makes the simulation
// checkpointable -- a snapshot stores the accumulators plus the frame
// count, and restore replays the already-processed frames (advancing
// steppers and re-applying fault events, skipping all accounting) to
// rebuild the exact floating-point phase without serializing it.
type groupJob struct {
	st  *runState
	gi  int
	grp constellation.Group
	mix bool

	cadence  float64
	computeS float64
	env      sched.Env
	// pipe runs every leader frame on the 1x1 plan: one detect, cluster
	// and schedule pass over the whole frame, the paper's leader pipeline.
	pipe  *core.ShardedPipeline
	fp    footprint // the leader's low-res frame
	swath float64   // executing camera's high-res swath

	// frame is the tangent frame of the frame in flight, read by the
	// recapture hook; recap counts the detections the hook suppressed in
	// it. A 1x1 plan calls the hook from the job's goroutine only; recap
	// stays atomic because core.ShardedPipeline's Template contract asks
	// for a PriorityScale that is safe for concurrent calls.
	frame geo.TangentFrame
	recap atomic.Int64

	lead *orbit.Stepper
	// ahead is the span's frame-query lookahead (see lookahead.go).
	ahead         spanSlots
	schedSteppers []*orbit.Stepper
	alive         []bool
	aliveCount    int
	leader        *constellation.Satellite
	activeSlots   []int // schedule slot -> follower index, rebuilt per frame

	events     []Event
	evCursor   int
	evReplayTo int // events below this cursor were counted pre-snapshot

	dark     bool
	frameIdx int
	ts       float64
	skipTo   int // frames below this index replay without accounting
}

func newGroupJob(st *runState, gi int, grp constellation.Group, events []Event) *groupJob {
	cfg := st.cfg
	leader := grp.Leader
	cadence := leader.Prop.FrameCadenceS(leader.LowRes.FootprintAlongM())
	computeS := cfg.ComputeDelayS
	if computeS == 0 {
		computeS = cfg.Tiling.FrameTimeS(cfg.Detector)
	}

	followers := grp.Followers
	mix := len(followers) == 0 // mix-camera: self-follower
	env := sched.Env{
		AltitudeM:     leader.Prop.AltitudeM(),
		GroundSpeedMS: leader.Prop.GroundSpeedMS(),
		Slew:          st.slewModel(),
	}
	// The off-nadir limit belongs to whichever camera executes the
	// schedule: the leader's own high-res camera in the mix variant,
	// the followers' otherwise.
	if mix {
		env.MaxOffNadirDeg = leader.HighRes.MaxOffNadirDeg
		// The satellite must be back at nadir for the next frame.
		env.HorizonS = math.Max(0, cadence-computeS-1)
	} else {
		env.MaxOffNadirDeg = followers[0].HighRes.MaxOffNadirDeg
	}

	j := &groupJob{
		st: st, gi: gi, grp: grp, mix: mix,
		cadence: cadence, computeS: computeS, env: env,
		leader: leader,
		swath:  highResSwath(grp, leader),
	}
	j.pipe = newFramePipeline(j)

	w, h := leader.LowRes.SwathM, leader.LowRes.FootprintAlongM()
	// Incremental propagation: one stepper tracks the leader at frame
	// cadence; schedule-time steppers track the leader (mix) or each
	// follower offset by the compute delay, advancing in lockstep.
	j.lead = leader.Prop.NewStepper(0, cadence)
	j.schedSteppers = make([]*orbit.Stepper, 0, len(followers)+1)
	if mix {
		j.schedSteppers = append(j.schedSteppers, leader.Prop.NewStepper(computeS, cadence))
	} else {
		for _, f := range followers {
			j.schedSteppers = append(j.schedSteppers, f.Prop.NewStepper(computeS, cadence))
		}
	}
	j.alive = make([]bool, len(j.schedSteppers))
	for i := range j.alive {
		j.alive[i] = true
	}
	j.aliveCount = len(j.alive)
	j.activeSlots = make([]int, 0, len(j.alive))
	// A frame captured at ts covers the swath ahead of the leader's nadir
	// (Fig. 9): the leader overflies the imaged area during the ~13.7 s it
	// spends computing, which is why the separation equals the swath
	// width -- a follower 100 km back is still behind the frame area when
	// the schedule arrives, whatever the compute latency, while a
	// mix-camera satellite has flown into its own frame and must look
	// backward at targets whose windows are closing. The candidate probe
	// runs around the raw sub-point (before the h/2 frame-center offset),
	// so its radius is inflated by that offset: every target inside the
	// frame disk is inside the probe disk, making the empty-frame fast
	// path a pure superset check.
	j.fp = footprint{w: w, h: h, qr: frameRadius(w, h) + h/2, ahead: h / 2}
	j.events = events
	return j
}

// newFramePipeline builds the group's frame engine. Its single shard unit
// owns a private scheduler and cover solver state, pooled and built here
// per group, so each leader owns its temporal-coherence state (warm
// candidates, basis reuse, incremental model construction -- see
// sched.SolverState) and the Result is identical for any Workers value.
// MaxShards 1 plans every frame as the 1x1 identity grid: a multi-shard
// plan drops most of its per-shard captures at the stitch (DESIGN.md,
// "Simulation wiring").
func newFramePipeline(j *groupJob) *core.ShardedPipeline {
	cfg := &j.st.cfg
	m := j.st.met
	sp := &core.ShardedPipeline{
		Template: core.Pipeline{
			Detector:      cfg.Detector,
			Tiling:        cfg.Tiling,
			UseClustering: !cfg.NoClustering,
			// Frame-rate clustering: bound the set-cover ILP per frame;
			// dense frames fall back to the greedy cover, as the energy
			// and deadline budgets require.
			ClusterOpts: cluster.Options{
				ForceGreedy:      cfg.ClusterGreedy,
				MaxILPCandidates: 400,
				MIP:              mip.Options{TimeLimit: 150 * time.Millisecond, MaxNodes: 40},
			},
			HighResSwathM:  j.swath,
			RecallOverride: cfg.RecallOverride,
			// Both the metrics layer and the flight recorder consume the
			// per-stage wall measurements.
			Timed: j.st.timed(),
		},
		MaxShards: 1,
	}
	if m != nil {
		sp.Template.ClusterOpts.MIP.Metrics = m.solverCluster
	}
	if cfg.RecaptureDedup {
		sp.Template.PriorityScale = j.recapturePriority
	}
	if !cfg.DisableWarmStart {
		// Pooled so per-run state construction stays out of the
		// steady-state allocation budget; Reset makes a recycled state
		// behave exactly like a fresh one. States go back to the pools in
		// close (Runner.Close), not per window. The pinned cover arena
		// carries the LP basis and the previous greedy cover seeds the ILP.
		sp.NewClusterState = cluster.GetSolverState
		sp.FreeClusterState = cluster.PutSolverState
	}
	if custom := cfg.Scheduler; custom != nil {
		// A custom scheduler is shared by every group's pipeline;
		// Config.Workers' contract already requires it to be safe for
		// concurrent use.
		sp.NewScheduler = func() sched.Scheduler { return custom }
	} else {
		// Frame-rate solves: bound the MIP search tightly; the polish pass
		// and the greedy fallback keep truncated solves near-optimal.
		opts := mip.Options{TimeLimit: 500 * time.Millisecond, MaxNodes: 200}
		if m != nil {
			opts.Metrics = m.solverSched
		}
		sp.NewScheduler = func() sched.Scheduler {
			ilp := sched.ILP{MIP: opts}
			if !cfg.DisableWarmStart {
				ilp.State = sched.GetSolverState()
			}
			return ilp
		}
		sp.FreeScheduler = func(s sched.Scheduler) {
			if ilp, ok := s.(sched.ILP); ok && ilp.State != nil {
				sched.PutSolverState(ilp.State)
			}
		}
	}
	return sp
}

// recapturePriority is the §4.7 recapture hook: detections at ground
// cells this group already captured at high resolution are deprioritized
// to a tenth of their score. capCells is read-only until executeSchedule
// runs, after the frame solve, so the hook writes nothing but the atomic
// counter.
func (j *groupJob) recapturePriority(lp geo.Point2) float64 {
	if j.st.capCells[capCellKey(j.frame.ToGeodetic(lp))] {
		j.recap.Add(1)
		return 0.1
	}
	return 1
}

func (j *groupJob) state() *runState { return j.st }

func (j *groupJob) close() {
	if j.pipe != nil {
		j.pipe.Close()
		j.pipe = nil
	}
	j.ahead = spanSlots{}
}

// finalize: group jobs book all energy and comms per frame; nothing is
// duration-derived.
func (j *groupJob) finalize(agg *runState, elapsedS float64) {}

// advanceSteppers moves every stepper to the current frame boundary.
func (j *groupJob) advanceSteppers() {
	j.lead.Advance()
	for _, s := range j.schedSteppers {
		s.Advance()
	}
}

// applyEvent performs one fault's structural changes. Counts are
// suppressed while the event cursor is below the snapshot's watermark: a
// restore replays structure, not accounting.
func (j *groupJob) applyEvent(ev Event) {
	if j.dark {
		// Several events can land on the same boundary; once the group is
		// dark there is nothing left to fail, so later ones are consumed
		// without inflating the failure counters.
		j.evCursor++
		return
	}
	st := j.st
	count := j.evCursor >= j.evReplayTo
	switch ev.Kind {
	case EventFollowerFail:
		if j.alive[ev.Follower] {
			j.alive[ev.Follower] = false
			j.aliveCount--
			if count {
				st.res.SatsFailed++
			}
		}
	case EventLeaderFail:
		if count {
			st.res.SatsFailed++
		}
		slot := -1
		if !j.mix {
			for si, a := range j.alive {
				if a {
					slot = si
					break
				}
			}
		}
		if slot < 0 {
			// Mix-camera bus, or no surviving follower: the group goes
			// dark at this boundary.
			j.dark = true
		} else {
			// Re-election: the survivor leaves the follower set and
			// restarts the leader ground track from its own ephemeris at
			// this boundary (the bus carries a spare low-res payload with
			// the group's standard camera parameters).
			nl := j.grp.Followers[slot]
			j.alive[slot] = false
			j.aliveCount--
			j.leader = nl
			j.lead = nl.Prop.NewStepper(j.ts, j.cadence)
			j.env.AltitudeM = nl.Prop.AltitudeM()
			j.env.GroundSpeedMS = nl.Prop.GroundSpeedMS()
			if count {
				st.res.LeaderReelections++
			}
		}
	}
	if count {
		st.countEvent(ev.Kind)
		if st.fb != nil {
			// Pin a synthetic record: fault events must be retrievable
			// from the flight dump long after the ring has churned, and
			// independently of whether a frame was in flight. Replayed
			// events (count == false) were pinned before the snapshot.
			st.fb.Event(j.gi, j.frameIdx, ev.AtS, obs.AnomFault, ev.Kind.String())
		}
	}
	j.evCursor++
}

// run advances the frame loop until the first frame boundary at or past
// untilS (frames strictly before untilS are produced). Frames below the
// restore watermark replay -- steppers advance and events apply, but no
// accounting, scheduling or RNG draws happen; the snapshot already holds
// their effects.
func (j *groupJob) run(untilS float64) error {
	st := j.st
	cfg := &st.cfg
	m := st.met
	timed := st.timed()
	for !j.dark && j.ts < untilS {
		ts := j.ts
		replay := j.frameIdx < j.skipTo
		if j.frameIdx > 0 {
			if m != nil && !replay && j.frameIdx&ephSampleMask == 0 {
				// Sampled ephemeris span: the advance costs about as much
				// as the clock read, so 1-in-64 frames are timed and the
				// ns total is scaled back up (histogram gets raw samples).
				t0 := time.Now()
				j.advanceSteppers()
				d := int64(time.Since(t0))
				m.stageNS[stageEphemeris].Add(d << ephSampleShift)
				m.stageHist[stageEphemeris].Observe(float64(d) / 1e9)
			} else {
				j.advanceSteppers()
			}
		}
		// Fault events fire at frame boundaries, once the steppers stand
		// at the boundary and before the frame exists; a re-elected
		// leader's stepper is anchored there.
		for j.evCursor < len(j.events) && j.events[j.evCursor].AtS <= ts {
			j.applyEvent(j.events[j.evCursor])
		}
		if j.dark {
			return nil
		}
		j.frameIdx++
		frameIdx := j.frameIdx
		j.ts = ts + j.cadence
		if replay {
			continue
		}
		st.res.Frames++
		st.leaderB.Capture(1)
		st.leaderB.Compute(j.computeS)
		fq := j.frameQuery(frameIdx-1, ts)
		st.cnt[cntCandidates+countID(queryFrame)] += int64(fq.cands)
		frame, idx, pts := fq.frame, fq.idx, fq.pts
		if len(idx) == 0 {
			continue
		}
		st.res.FramesWithTargets++
		st.res.TargetsPerImage.Observe(len(idx))
		for _, ci := range idx {
			st.seen.set(ci)
		}
		if j.aliveCount == 0 {
			// Every capture payload has failed: the leader keeps imaging
			// (seen accounting above stays honest) but there is nothing to
			// task, so the detect/schedule pipeline is skipped.
			continue
		}

		// Schedule starts when the leader finishes computing.
		tSched := ts + j.computeS
		fols := st.scFols[:0]
		slots := j.activeSlots[:0]
		for si, s := range j.schedSteppers {
			if !j.alive[si] {
				continue
			}
			sub := frame.ToLocal(s.SubPoint())
			fols = append(fols, sched.Follower{SubPoint: sub, Boresight: sub})
			slots = append(slots, si)
		}
		st.scFols = fols
		j.activeSlots = slots

		// A timed frame reads the clock four times: before the pipeline,
		// around executeSchedule, and after accounting (recordFrame).
		var t0, t1, t2 time.Time
		if timed {
			t0 = time.Now()
		}
		cframe := core.Frame{
			Truth:  pts,
			Bounds: geo.NewRectCentered(geo.Point2{}, j.fp.w, j.fp.h),
			GSDM:   j.leader.LowRes.GSDM,
		}
		j.frame = frame
		fres, _, err := j.pipe.ProcessFrame(cframe, fols, j.env, frameSeed(cfg.Seed, j.gi, frameIdx))
		if err != nil {
			return fmt.Errorf("sim: group %d frame %d: %w", j.gi, frameIdx, err)
		}
		st.res.RecaptureSuppressed += int(j.recap.Swap(0))
		st.res.Detections += len(fres.Detections)
		st.res.Clusters += len(fres.Clusters)
		st.res.SchedSolves++
		st.res.SchedWallTotal += fres.SchedWall
		if fres.SchedWall > st.res.SchedWallMax {
			st.res.SchedWallMax = fres.SchedWall
		}
		st.res.SchedNodes += fres.Schedule.SolveStats.Nodes
		st.res.SchedIters += fres.Schedule.SolveStats.Iters
		st.res.SchedPivotWall += fres.Schedule.SolveStats.PivotWall
		st.res.ClusterNodes += fres.ClusterStats.Nodes
		st.res.ClusterIters += fres.ClusterStats.Iters
		st.res.ClusterPivotWall += fres.ClusterStats.PivotWall
		if fres.Schedule.SolveStats.Fallback {
			st.cnt[cntSchedFallbacks]++
		}
		if fres.ClusterStats.Fallback {
			st.cnt[cntClusterFallbacks]++
		}
		missed := j.computeS+fres.SchedWall.Seconds() > j.cadence
		if missed {
			st.res.MissedDeadline++
		}
		if cfg.ValidateSchedules {
			if err := validateAgainstPipeline(&fres, fols, j.env); err != nil {
				return fmt.Errorf("sim: group %d frame %d: %w", j.gi, frameIdx, err)
			}
		}
		if timed {
			t1 = time.Now()
		}
		j.executeSchedule(frame, tSched, &fres)
		if timed {
			t2 = time.Now()
		}
		st.res.CrosslinkBytes += fres.CrosslinkBytes
		st.leaderB.Crosslink(fres.CrosslinkBytes / comms.PaperCrosslink().RateBps)
		if st.traceOn {
			st.trace = append(st.trace, TraceRecord{
				Group:        j.gi,
				Frame:        frameIdx,
				TimeS:        ts,
				Lat:          frame.Origin.Lat,
				Lon:          frame.Origin.Lon,
				Targets:      len(idx),
				Detected:     len(fres.Detections),
				Clusters:     len(fres.Clusters),
				Captures:     fres.Schedule.NumCaptures(),
				Covered:      len(fres.Schedule.CoveredIDs()),
				SchedMS:      float64(fres.SchedWall.Microseconds()) / 1000,
				Deadline:     !missed,
				SchedNodes:   fres.Schedule.SolveStats.Nodes,
				SchedIters:   fres.Schedule.SolveStats.Iters,
				SchedGap:     fres.Schedule.SolveStats.Gap,
				ClusterNodes: fres.ClusterStats.Nodes,
				ClusterIters: fres.ClusterStats.Iters,
			})
		}
		if timed {
			j.recordFrame(frameIdx, ts, &fres, len(idx), missed, t0, t1, t2, time.Now())
		}
	}
	return nil
}

// frameQuery returns frame k's query at ts: the lookahead helper's
// result when it ran the query, else the query run inline on the loop's
// scratch.
func (j *groupJob) frameQuery(k int, ts float64) frameResult {
	st := j.st
	if s := j.ahead.slot(k); s != nil {
		if fq, ok := s.take(&st.cnt); ok {
			return fq
		}
	}
	st.q.idx, st.q.pts = st.q.idx[:0], st.q.pts[:0]
	return st.q.frameQuery(&j.fp, j.lead, ts)
}

// recordFrame feeds a timed frame's stage walls to both sinks, the
// registry's stage series and the flight recorder, from one set of clock
// reads: t0 before the pipeline, t1 and t2 around executeSchedule, t3
// after accounting. The pipeline measured detect, cluster and sched itself
// (Template.Timed is on whenever a frame is timed). The flight span tree
// lays the stages out at sequential offsets; each solver stage nests a
// solve span carrying the LP pivot wall and the B&B node / simplex
// iteration counts. Anomaly bits come from the per-solve stats deltas, so
// a slow or degraded frame is pinned with the evidence attached.
func (j *groupJob) recordFrame(frameIdx int, ts float64, fres *core.Result, targets int, missed bool, t0, t1, t2, t3 time.Time) {
	ns := [numStages]int64{
		stageDetect:  int64(fres.DetectWall),
		stageCluster: int64(fres.ClusterWall),
		stageSched:   int64(fres.SchedWall),
		stageExecute: int64(t2.Sub(t1)),
		stageAccount: int64(t3.Sub(t2)),
	}
	if m := j.st.met; m != nil {
		for s := stageDetect; s < numStages; s++ {
			m.span(s, ns[s])
		}
	}
	fb := j.st.fb
	if fb == nil {
		return
	}
	fb.Start(j.gi, frameIdx, ts)
	off := int64(0)
	fb.Add(0, obs.SpanStage, stageNames[stageDetect], off, ns[stageDetect], int64(targets), int64(len(fres.Detections)))
	off += ns[stageDetect]
	cl := fb.Add(0, obs.SpanStage, stageNames[stageCluster], off, ns[stageCluster], int64(len(fres.Detections)), int64(len(fres.Clusters)))
	cstats := &fres.ClusterStats
	if cstats.Nodes > 0 || cstats.Iters > 0 {
		fb.Add(cl, obs.SpanSolve, "cover-ilp", off, int64(cstats.PivotWall), int64(cstats.Nodes), int64(cstats.Iters))
	}
	off += ns[stageCluster]
	sstats := &fres.Schedule.SolveStats
	name := sstats.Algorithm
	if name == "" {
		name = "sched"
	}
	sc := fb.Add(0, obs.SpanStage, stageNames[stageSched], off, ns[stageSched], int64(len(fres.Clusters)), int64(fres.Schedule.NumCaptures()))
	fb.Add(sc, obs.SpanSolve, name, off, int64(sstats.PivotWall), int64(sstats.Nodes), int64(sstats.Iters))
	off += ns[stageSched]
	fb.Add(0, obs.SpanStage, stageNames[stageExecute], off, ns[stageExecute], 0, 0)
	off += ns[stageExecute]
	fb.Add(0, obs.SpanStage, stageNames[stageAccount], off, ns[stageAccount], 0, 0)

	if sstats.Fallback {
		fb.Anomaly(obs.AnomFallback)
	}
	if (sstats.WarmAttempted && !sstats.Warm) || (cstats.WarmAttempted && !cstats.WarmAccepted) {
		fb.Anomaly(obs.AnomWarmReject)
	}
	if sstats.RepairFails+cstats.RepairFails > 0 {
		fb.Anomaly(obs.AnomDualRepair)
	}
	if sstats.Refactorizations+cstats.Refactorizations > 0 {
		fb.Anomaly(obs.AnomRefactor)
	}
	if missed {
		fb.Anomaly(obs.AnomDeadline)
	}
	fb.Finish(int64(t3.Sub(t0)))
}

// executeSchedule scores captures: a truth target counts as captured when
// its true position at the capture time lies inside the captured
// footprint. Moving targets may drift out between detection and capture --
// exactly the §4.6 lookahead effect.
func (j *groupJob) executeSchedule(frame geo.TangentFrame, tSched float64, fres *core.Result) {
	st := j.st
	swath := j.swath
	tx := st.q.index
	targets := tx.Set().Targets
	// A target inside a capture's footprint lies within frameRadius(swath,
	// swath) of the aim point: Contains(ToLocal(p)) puts p's frame
	// coordinates within hypot(swath, swath)/2 of the aim's, and frame
	// coordinates misstate great-circle distance by ~10 m at 300 km
	// cross-track (the along-track axis shrinks by cos(cross-track/R) off
	// the track), far inside frameRadius's 5 km margin. So the chord test
	// (TimedIndex.Outside) against that radius rejects only targets the
	// footprint test would reject, before their exact position or ToLocal
	// is computed.
	reach := frameRadius(swath, swath)
	for fi, seq := range fres.Schedule.Captures {
		// Slew energy depends on the executing satellite's own altitude:
		// the leader itself in the mix variant, the follower behind
		// schedule slot fi otherwise (groups may mix altitudes; failed
		// followers hold no slot).
		exec := j.leader
		if !j.mix && fi < len(j.activeSlots) {
			exec = j.grp.Followers[j.activeSlots[fi]]
		}
		altM := exec.Prop.AltitudeM()
		var prevAim geo.Point2
		prevT := 0.0
		first := true
		for _, c := range seq {
			absT := tSched + c.Time
			fp := geo.NewRectCentered(c.Aim, swath, swath)
			// Re-query around the aim point at capture time: targets may
			// have moved into or out of the footprint. The candidate
			// scratch is free here: the frame's filtered idx/pts live in
			// their own buffers.
			aim := frame.ToGeodetic(c.Aim)
			disk := dataset.NewCap(aim, reach)
			cands := st.q.near(aim, reach, absT)
			st.cnt[cntCandidates+countID(queryCapture)] += int64(len(cands))
			for _, ci := range cands {
				if !targets[ci].ActiveAt(absT) || tx.Outside(ci, absT, &disk) {
					continue
				}
				pos := targets[ci].PosAt(absT)
				if fp.Contains(frame.ToLocal(pos)) {
					st.captured.set(ci)
					if st.cfg.RecaptureDedup {
						st.capCells[capCellKey(pos)] = true
					}
				}
			}
			st.res.Captures++
			st.folB.Capture(1)
			if !first {
				// Approximate the commanded rotation by the aim-point
				// angular separation at capture times.
				ang := adacs.PointingAngleDeg(
					geo.Point2{X: prevAim.X, Y: prevAim.Y - 50e3}, prevAim,
					geo.Point2{X: c.Aim.X, Y: c.Aim.Y - 50e3}, c.Aim,
					altM)
				st.folB.Slew(ang, c.Time-prevT)
			}
			first = false
			prevAim, prevT = c.Aim, c.Time
		}
	}
}
