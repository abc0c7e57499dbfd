// Package sched implements EagleEye's actuation-aware follower scheduling
// (§3.3, §4.2, §4.3): given the targets a leader identified in one
// low-resolution frame and the states of its follower satellites, produce a
// per-follower sequence of pointing and capture actions that maximizes the
// total value of captured targets, subject to
//
//	C1 (actuation):   consecutive captures are separated by enough time for
//	                  the ADACS to slew between them (MaxAng),
//	C2 (off-nadir):   every capture happens inside the target's imaging
//	                  time window (maximum off-nadir angle), and
//	C3 (containment): the aim point puts the target inside the image.
//
// Three schedulers are provided:
//
//   - ILP (the paper's contribution): a time-expanded flow ILP solved with
//     internal/mip; see ilp.go.
//   - Greedy (baseline, §4.3): each follower repeatedly captures the
//     nearest feasible unimaged target.
//   - AB&B (prior-work baseline, §2.3/[27]): anytime branch-and-bound over
//     capture sequences; optimal but exponential in the target count.
//
// All geometry is frame-local (meters; X cross-track, Y along-track), with
// t = 0 the moment the schedule starts executing.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/geo"
)

// Target is a capture task: a clustered aim point with a priority score.
type Target struct {
	ID    int        // caller-assigned identifier, unique within a Problem
	Pos   geo.Point2 // aim point, frame-local meters
	Value float64    // priority score (sum of detection confidences, §3.2)
}

// Follower is the initial condition of one follower satellite at t = 0.
type Follower struct {
	SubPoint  geo.Point2 // current sub-satellite point, frame-local meters
	Boresight geo.Point2 // current boresight ground intercept
}

// Env is the shared pass geometry for all followers in the group.
type Env struct {
	AltitudeM      float64         // orbit altitude
	GroundSpeedMS  float64         // sub-satellite ground speed
	MaxOffNadirDeg float64         // usable off-nadir limit (Theta_max)
	Slew           adacs.SlewModel // ADACS actuation model
	// HorizonS optionally bounds how far into the future captures may be
	// scheduled; 0 means unbounded (windows bound the schedule anyway).
	HorizonS float64
}

// Validate reports whether the environment is physically plausible.
func (e Env) Validate() error {
	if e.AltitudeM <= 0 {
		return fmt.Errorf("sched: altitude %v must be positive", e.AltitudeM)
	}
	if e.GroundSpeedMS <= 0 {
		return fmt.Errorf("sched: ground speed %v must be positive", e.GroundSpeedMS)
	}
	if e.MaxOffNadirDeg <= 0 || e.MaxOffNadirDeg >= 90 {
		return fmt.Errorf("sched: max off-nadir %v out of (0,90)", e.MaxOffNadirDeg)
	}
	return e.Slew.Validate()
}

// Problem is one scheduling instance: M targets, N followers (Table 1).
type Problem struct {
	Env       Env
	Targets   []Target
	Followers []Follower
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if err := p.Env.Validate(); err != nil {
		return err
	}
	if len(p.Followers) == 0 {
		return fmt.Errorf("sched: no followers")
	}
	seen := make(map[int]bool, len(p.Targets))
	for _, t := range p.Targets {
		if seen[t.ID] {
			return fmt.Errorf("sched: duplicate target id %d", t.ID)
		}
		seen[t.ID] = true
		if t.Value < 0 {
			return fmt.Errorf("sched: target %d has negative value", t.ID)
		}
	}
	return nil
}

// subPointAt returns follower f's sub-point at time t.
func (p *Problem) subPointAt(f Follower, t float64) geo.Point2 {
	return geo.Point2{X: f.SubPoint.X, Y: f.SubPoint.Y + p.Env.GroundSpeedMS*t}
}

// Window returns the imaging time window [t0, t1] (clamped to t >= 0 and
// the horizon) for target tgt as seen by follower f, and whether any
// feasible time exists. This is the paper's Eq. 2 with "not in the past"
// and horizon clamps applied.
func (p *Problem) Window(f Follower, tgt Target) (t0, t1 float64, ok bool) {
	t0, t1, ok = adacs.TimeWindow(f.SubPoint, tgt.Pos, p.Env.GroundSpeedMS, p.Env.AltitudeM, p.Env.MaxOffNadirDeg)
	if !ok {
		return 0, 0, false
	}
	if t0 < 0 {
		t0 = 0
	}
	if p.Env.HorizonS > 0 && t1 > p.Env.HorizonS {
		t1 = p.Env.HorizonS
	}
	if t1 < t0 {
		return 0, 0, false
	}
	return t0, t1, true
}

// TransitionFeasible reports whether follower f, aiming at ground point
// from at time tFrom, can aim at ground point to at time tTo (Eq. 1 /
// constraint C1). A zero-angle transition is always feasible.
func (p *Problem) TransitionFeasible(f Follower, from geo.Point2, tFrom float64, to geo.Point2, tTo float64) bool {
	if tTo < tFrom {
		return false
	}
	a := adacs.PointingAngleDeg(p.subPointAt(f, tFrom), from, p.subPointAt(f, tTo), to, p.Env.AltitudeM)
	if a < 1e-9 {
		return true
	}
	return a <= p.Env.Slew.MaxAngDeg(tTo-tFrom)+1e-9
}

// Arrival returns the earliest time inside the window [w0, w1] at which
// follower f, aiming at from at tFrom, can be aiming at to: the Eq. 1
// solve's arrival clamped up to w0, and false when it is past w1. Polish,
// greedy and AB&B all time captures with it; the solve stops as soon as
// the window decides the answer (adacs.ArrivalS).
func (p *Problem) Arrival(f Follower, from geo.Point2, tFrom float64, to geo.Point2, w0, w1 float64) (float64, bool) {
	return adacs.ArrivalS(p.Env.Slew, p.subPointAt(f, tFrom), from, to, p.Env.GroundSpeedMS, p.Env.AltitudeM, tFrom, w0, w1)
}

// Capture is one scheduled image: which target, when, by which follower.
type Capture struct {
	TargetID int
	Time     float64 // seconds from schedule start
	Follower int     // index into Problem.Followers
	Aim      geo.Point2
}

// Schedule is the solver output: an ordered capture sequence per follower.
type Schedule struct {
	Captures [][]Capture // indexed by follower
	// Value is the sum of values of distinct captured targets (the paper's
	// optimization goal, with the Hit-set union removing duplicates).
	Value float64
	// SolveStats carries solver diagnostics for the runtime evaluation.
	SolveStats Stats
}

// Stats reports how a schedule was computed. The solver-cost fields
// (Iters, PivotWall, Gap) are populated by the ILP scheduler and zero for
// the search/greedy baselines, where they have no meaning.
type Stats struct {
	Algorithm string
	Nodes     int // search nodes / B&B nodes, when meaningful
	Optimal   bool
	Iters     int           // simplex iterations across all B&B nodes
	Gap       float64       // bound - incumbent when the solve stopped early
	PivotWall time.Duration // wall time spent inside LP solves
	// Fallback marks a schedule (or, for the sequential decomposition, at
	// least one sub-schedule) produced by the greedy fallback after the ILP
	// stopped without an incumbent.
	Fallback bool
	// Warm-start accounting (ILP scheduler with cross-frame State only).
	WarmAttempted bool // a warm candidate was offered to the solver
	Warm          bool // a warm candidate verified and was used
	WarmPruned    int  // B&B nodes cut by the warm floor
	BasisReuses   int  // LP solves that skipped phase 1 via basis reuse
	// LP anomaly deltas for this solve (flight-recorder signals).
	Refactorizations int // sparse-core mid-solve refactorizations
	RepairFails      int // dual-repair attempts that went cold
}

// CoveredIDs returns the distinct captured target IDs in ascending order.
func (s *Schedule) CoveredIDs() []int {
	set := make(map[int]bool)
	for _, seq := range s.Captures {
		for _, c := range seq {
			set[c.TargetID] = true
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// NumCaptures returns the total capture count across followers.
func (s *Schedule) NumCaptures() int {
	n := 0
	for _, seq := range s.Captures {
		n += len(seq)
	}
	return n
}

// TotalSlewDeg returns the total body rotation commanded by the schedule,
// used by the energy model to account ADACS consumption.
func (s *Schedule) TotalSlewDeg(p *Problem) float64 {
	total := 0.0
	for fi, seq := range s.Captures {
		if fi >= len(p.Followers) {
			continue
		}
		f := p.Followers[fi]
		prevAim := f.Boresight
		prevT := 0.0
		for _, c := range seq {
			total += adacs.PointingAngleDeg(
				p.subPointAt(f, prevT), prevAim,
				p.subPointAt(f, c.Time), c.Aim, p.Env.AltitudeM)
			prevAim, prevT = c.Aim, c.Time
		}
	}
	return total
}

// Scheduler is the interface shared by the ILP, greedy and AB&B solvers.
type Scheduler interface {
	// Name identifies the algorithm in results and figures.
	Name() string
	// Schedule solves one instance. Implementations must return schedules
	// that pass ValidateSchedule.
	Schedule(p *Problem) (Schedule, error)
}

// ValidateSchedule checks constraints C1-C3 for every capture and computes
// nothing else; a nil return means the schedule is executable.
func ValidateSchedule(p *Problem, s *Schedule) error {
	if len(s.Captures) > len(p.Followers) {
		return fmt.Errorf("sched: %d capture sequences for %d followers", len(s.Captures), len(p.Followers))
	}
	byID := make(map[int]Target, len(p.Targets))
	for _, t := range p.Targets {
		byID[t.ID] = t
	}
	for fi, seq := range s.Captures {
		f := p.Followers[fi]
		prevAim := f.Boresight
		prevT := 0.0
		for ci, c := range seq {
			tgt, known := byID[c.TargetID]
			if !known {
				return fmt.Errorf("sched: follower %d capture %d: unknown target %d", fi, ci, c.TargetID)
			}
			if c.Time < prevT-1e-9 {
				return fmt.Errorf("sched: follower %d capture %d: time %v before previous %v", fi, ci, c.Time, prevT)
			}
			// C1: actuation feasibility from the previous pointing.
			if !p.TransitionFeasible(f, prevAim, prevT, c.Aim, c.Time) {
				return fmt.Errorf("sched: follower %d capture %d (target %d): actuation constraint violated", fi, ci, c.TargetID)
			}
			// C2: off-nadir limit at capture time.
			sub := p.subPointAt(f, c.Time)
			if on := adacs.OffNadirDeg(sub, c.Aim, p.Env.AltitudeM); on > p.Env.MaxOffNadirDeg+1e-6 {
				return fmt.Errorf("sched: follower %d capture %d (target %d): off-nadir %v > %v", fi, ci, c.TargetID, on, p.Env.MaxOffNadirDeg)
			}
			// C3: the target lies at the aim point (the aim point is the
			// cluster box center; containment within the footprint is the
			// clusterer's invariant, checked here as aim proximity).
			if c.Aim.Dist(tgt.Pos) > 1e-6 {
				return fmt.Errorf("sched: follower %d capture %d: aim %v differs from target %d pos %v", fi, ci, c.Aim, c.TargetID, tgt.Pos)
			}
			prevAim, prevT = c.Aim, c.Time
		}
	}
	// Value accounting: distinct targets only.
	var want float64
	for _, id := range s.CoveredIDs() {
		want += byID[id].Value
	}
	if math.Abs(want-s.Value) > 1e-6*(1+math.Abs(want)) {
		return fmt.Errorf("sched: declared value %v != recomputed %v", s.Value, want)
	}
	return nil
}

// targetByID builds the id -> Target index shared by the solvers.
func targetByID(p *Problem) map[int]Target {
	m := make(map[int]Target, len(p.Targets))
	for _, t := range p.Targets {
		m[t.ID] = t
	}
	return m
}
