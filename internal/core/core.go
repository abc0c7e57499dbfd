// Package core implements the EagleEye operating model -- the paper's
// primary contribution (§3, §4). A LeaderPipeline is the software that runs
// on a leader satellite every frame: identify targets in the fresh
// low-resolution image with onboard ML (internal/detect), cluster nearby
// targets so one high-resolution capture covers several (internal/cluster),
// and compute an actuation-aware schedule for the trailing followers
// (internal/sched). The package also provides the moving-target lookahead
// analysis of §4.6 and the reliability fallbacks of §4.7.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"eagleeye/internal/cluster"
	"eagleeye/internal/comms"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/sched"
)

// Frame is one low-resolution image delivered to the pipeline, expressed
// in the leader's frame-local coordinates (X cross-track, Y along-track,
// origin at the frame center, which is the leader's nadir at capture time).
type Frame struct {
	// Truth holds the true target positions inside the footprint (the
	// simulator knows them; the detector only sees them statistically).
	Truth []geo.Point2
	// Bounds is the imaged footprint.
	Bounds geo.Rect
	// GSDM is the image ground sample distance.
	GSDM float64
}

// Pipeline is the leader's per-frame software stack.
type Pipeline struct {
	// Detector is the onboard ML model.
	Detector detect.Model
	// Tiling sets the frame decomposition (and hence compute latency).
	Tiling detect.Tiling
	// UseClustering enables the §4.1 target clustering step.
	UseClustering bool
	// ClusterOpts tunes the clusterer (greedy ablation, ILP budget).
	ClusterOpts cluster.Options
	// Scheduler computes follower actuation schedules.
	Scheduler sched.Scheduler
	// HighResSwathM is the follower footprint edge used for clustering.
	HighResSwathM float64
	// RecallOverride, when in (0,1], replaces the detector's recall
	// (the Fig. 15 sensitivity knob).
	RecallOverride float64
	// Timed enables per-stage wall measurement (DetectWall, ClusterWall).
	// SchedWall is always measured -- it is part of the paper's evaluation
	// -- but the cheaper stages only pay for clock reads when the caller
	// wants the observability breakdown.
	Timed bool
	// PriorityScale, when non-nil, rescales each detection's priority by
	// its ground position before clustering and scheduling. It is the
	// recapture/re-identification hook of §4.7: the caller returns a
	// value below 1 for positions already imaged (deprioritize) or above
	// 1 for targets known to have changed (prioritize). A scale of 0
	// removes the detection from scheduling entirely.
	PriorityScale func(geo.Point2) float64
	// Rng drives the statistical detector. Required.
	Rng *rand.Rand

	// Per-frame scratch reused across ProcessFrame calls (the simulator
	// calls one Pipeline per group for tens of thousands of frames).
	// Nothing in Result aliases these: detections copy positions, clusters
	// hold member indices and boxes, and schedules copy aim points. A
	// Pipeline is single-goroutine, as the Rng field already requires.
	scratchPts     []geo.Point2
	scratchTargets []sched.Target
	scratchProb    sched.Problem
	scratchWire    []byte
	// emptyCaps backs the no-detections Schedule; callers treat returned
	// schedules as read-only.
	emptyCaps [][]sched.Capture
}

// Result is everything one frame produced.
type Result struct {
	Detections []detect.Detection
	Clusters   []cluster.Cluster
	Schedule   sched.Schedule
	// ComputeS is the modeled onboard latency: ML inference over the
	// tiles. (Scheduling time is measured, not modeled: SchedWall.)
	ComputeS float64
	// SchedWall is the measured wall-clock scheduling latency (Fig. 12a).
	SchedWall time.Duration
	// DetectWall and ClusterWall are the measured stage latencies, populated
	// only when Pipeline.Timed is set.
	DetectWall  time.Duration
	ClusterWall time.Duration
	// ClusterMethod records whether the ILP or the greedy cover ran.
	ClusterMethod cluster.Method
	// ClusterStats carries the cover ILP's solver cost (zero when greedy).
	ClusterStats cluster.SolveStats
	// CrosslinkBytes is the schedule traffic to the followers.
	CrosslinkBytes float64
}

// ProcessFrame runs the full leader pipeline for one frame: detection,
// clustering, actuation-aware scheduling. followers are the group's
// follower states at schedule-start time (t = 0 of the returned schedule);
// env is the shared pass geometry.
func (p *Pipeline) ProcessFrame(f Frame, followers []sched.Follower, env sched.Env) (Result, error) {
	if p.Rng == nil {
		return Result{}, fmt.Errorf("core: pipeline needs an Rng")
	}
	if len(followers) == 0 {
		return Result{}, fmt.Errorf("core: no followers to schedule")
	}
	var res Result
	res.ComputeS = p.Tiling.FrameTimeS(p.Detector)

	model := p.Detector
	if p.RecallOverride > 0 && p.RecallOverride <= 1 {
		model.Recall = p.RecallOverride
	}
	var stageStart time.Time
	if p.Timed {
		stageStart = time.Now()
	}
	res.Detections = detect.Detect(p.Rng, model, f.Truth, f.Bounds, f.GSDM)
	if p.Timed {
		res.DetectWall = time.Since(stageStart)
	}
	if p.PriorityScale != nil {
		// Detection confidences double as scheduling priorities (§3.2), so
		// recapture deprioritization rescales them in place.
		for i := range res.Detections {
			res.Detections[i].Confidence *= p.PriorityScale(res.Detections[i].Pos)
		}
	}
	if len(res.Detections) == 0 {
		if len(p.emptyCaps) != len(followers) {
			p.emptyCaps = make([][]sched.Capture, len(followers))
		}
		res.Schedule = sched.Schedule{Captures: p.emptyCaps}
		return res, nil
	}

	// Build capture tasks: one per cluster (or one per detection when
	// clustering is off). Priorities are summed detection confidences
	// (§3.2, §4.1).
	targets := p.scratchTargets[:0]
	if p.UseClustering {
		pts := p.scratchPts[:0]
		for _, d := range res.Detections {
			pts = append(pts, d.Pos)
		}
		p.scratchPts = pts
		swath := p.HighResSwathM
		if swath <= 0 {
			swath = 10e3
		}
		// Shrink the cover box slightly so targets detected with jitter at
		// the box edge still land inside the true footprint.
		boxEdge := swath - 2*f.GSDM
		if boxEdge <= 0 {
			boxEdge = swath
		}
		if p.Timed {
			stageStart = time.Now()
		}
		cs, method, cstats, err := cluster.CoverStats(pts, boxEdge, boxEdge, p.ClusterOpts)
		if p.Timed {
			res.ClusterWall = time.Since(stageStart)
		}
		if err != nil {
			return Result{}, fmt.Errorf("core: clustering: %w", err)
		}
		res.Clusters = cs
		res.ClusterMethod = method
		res.ClusterStats = cstats
		for i, c := range cs {
			val := 0.0
			for _, m := range c.Members {
				val += res.Detections[m].Confidence
			}
			targets = append(targets, sched.Target{ID: i, Pos: c.Center(), Value: val})
		}
	} else {
		for i, d := range res.Detections {
			targets = append(targets, sched.Target{ID: i, Pos: d.Pos, Value: d.Confidence})
		}
	}

	p.scratchTargets = targets

	p.scratchProb = sched.Problem{Env: env, Targets: targets, Followers: followers}
	start := time.Now()
	schedule, err := p.Scheduler.Schedule(&p.scratchProb)
	res.SchedWall = time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("core: scheduling: %w", err)
	}
	res.Schedule = schedule
	p.scratchWire, res.CrosslinkBytes = scheduleWireBytes(p.scratchWire, schedule.Captures)
	return res, nil
}

// scheduleWireBytes accounts crosslink traffic with the actual wire
// encoding; the §5.3 2 KB bound is enforced by the encoder, so an
// oversized sequence is split into bound-sized messages for accounting.
// buf is reusable scratch, returned grown; falls back to the analytic
// message size when a chunk fails to encode.
func scheduleWireBytes(buf []byte, captures [][]sched.Capture) ([]byte, float64) {
	total := 0.0
	for fi, seq := range captures {
		for len(seq) > 0 {
			chunk := seq
			if max := sched.MaxCapturesPerMessage(); len(chunk) > max {
				chunk = seq[:max]
			}
			msg, err := sched.AppendSchedule(buf[:0], fi, chunk)
			buf = msg
			if err != nil {
				total += comms.ScheduleMessageBytes(len(chunk))
			} else {
				total += float64(len(msg))
			}
			seq = seq[len(chunk):]
		}
	}
	return buf, total
}

// CaptureFootprints maps the schedule's captures to ground footprints of
// the follower camera (edge swathM), in frame-local coordinates. The
// simulator intersects these with truth positions at capture time to score
// coverage -- including targets the detector missed but that happen to lie
// inside a captured image (the Fig. 15 effect).
func (r *Result) CaptureFootprints(swathM float64) []geo.Rect {
	var out []geo.Rect
	for _, seq := range r.Schedule.Captures {
		for _, c := range seq {
			out = append(out, geo.NewRectCentered(c.Aim, swathM, swathM))
		}
	}
	return out
}
