// Package eagleeye is a Go implementation of EagleEye, the
// mixed-resolution, leader-follower nanosatellite constellation design for
// high-coverage, high-resolution Earth sensing (Cheng, Denby, McCleary,
// Lucia -- ASPLOS 2024).
//
// An EagleEye constellation pairs wide-swath, low-resolution *leader*
// satellites that detect targets with onboard ML against narrow-swath,
// high-resolution *follower* satellites that the leader tasks through an
// actuation-aware ILP schedule. The package exposes three layers:
//
//   - Run: full constellation simulations over built-in or custom target
//     worlds, reproducing the paper's evaluation (see cmd/figures).
//   - Schedule / ClusterTargets: the onboard algorithms on their own, for
//     integrating into other mission simulators.
//   - Analysis helpers such as MaxLookaheadM (moving-target limits) and
//     CameraCatalogue (the swath/GSD tradeoff).
//
// See the examples/ directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package eagleeye

import (
	"fmt"
	"io"
	"strings"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/camera"
	"eagleeye/internal/cluster"
	"eagleeye/internal/comms"
	"eagleeye/internal/constellation"
	"eagleeye/internal/core"
	"eagleeye/internal/dataset"
	"eagleeye/internal/detect"
	"eagleeye/internal/energy"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/obs"
	"eagleeye/internal/orbit"
	"eagleeye/internal/sched"
	"eagleeye/internal/sim"
)

// MetricsRegistry is the simulator's observability registry: named atomic
// counters, gauges and histograms with Prometheus text-format exposition
// (WritePrometheus), a JSON snapshot (WriteSummary), and typed read
// accessors (CounterValue, GaugeValue). Pass one via Config.Metrics to
// collect run metrics; see the README metrics table for the exported
// series. The alias makes the internal type usable by external callers.
type MetricsRegistry = obs.Registry

// MetricsServer is a live HTTP introspection endpoint (see ServeMetrics).
type MetricsServer = obs.Server

// NewMetricsRegistry returns an empty registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// FlightRecorder keeps the recent and the anomalous frames of a run as
// span trees in bounded memory: a ring of recent frames, top-K retention
// by duration, and anomaly-triggered pinning (solver fallback,
// warm-start reject, dual-repair failure, refactorization alarm,
// deadline miss, fault event). Pass one via Config.Flight (or
// StepOptions.Flight) and dump it with WriteJSON after -- or during --
// the run to explain any slow frame after the fact.
type FlightRecorder = obs.FlightRecorder

// FlightConfig sizes a FlightRecorder's retention classes; the zero
// value takes the defaults (128-frame ring, top 16 by duration, 64
// pinned).
type FlightConfig = obs.FlightConfig

// NewFlightRecorder returns a recorder for Config.Flight.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return obs.NewFlightRecorder(cfg) }

// ServeMetrics binds addr (e.g. "127.0.0.1:9090", or ":0" for an
// ephemeral port -- the bound address is available via Addr) and serves
// /metrics (Prometheus text format), /summary (JSON), /debug/vars
// (expvar) and /debug/pprof until Close. Scraping reads only atomics, so
// a live endpoint never perturbs a running simulation. Passing a
// FlightRecorder additionally serves its dump on /debug/flight.
func ServeMetrics(addr string, reg *MetricsRegistry, flight ...*FlightRecorder) (*MetricsServer, error) {
	return obs.Serve(addr, reg, flight...)
}

// Organization names accepted by Config.Organization.
const (
	LowResOnly     = "low-res-only"
	HighResOnly    = "high-res-only"
	LeaderFollower = "leader-follower"
	MixCamera      = "mix-camera"
)

// Scheduler names accepted by Config.Scheduler.
const (
	SchedulerILP    = "ilp"
	SchedulerGreedy = "greedy"
	SchedulerABB    = "abb"
)

// Dataset names accepted by Config.Dataset (the paper's four workloads).
const (
	DatasetShips     = "ships"
	DatasetAirplanes = "airplanes"
	DatasetLakes166K = "lakes-166k"
	DatasetLakes1p4M = "lakes-1.4m"
	DatasetOilTanks  = "oiltanks"
)

// MaxSatellites bounds Config.Satellites. A run builds every satellite
// and its per-frame state up front, so the count sizes memory: one step of
// a 20,000-satellite session allocated 476 MB. The bound sits far above
// every scenario in this repository (the examples fly at most 12
// satellites, the full-scale size sweep 40) and stops an untrusted
// scenario -- a POST /v1/sessions body or a checkpoint header -- from
// sizing that allocation.
const MaxSatellites = 1000

// MaxDurationHours bounds Config.DurationHours and a windowed step's
// hours. A run simulates every frame of its span, so a span whose
// seconds overflow to +Inf (1e308 h) never ends. The bound is one year,
// 52× the longest scenario in this repository (the 168 h long-horizon
// runs), and stops an untrusted scenario -- a POST /v1/sessions body, a
// step body or a checkpoint header -- from holding a worker for good.
const MaxDurationHours = 8760

// Config selects a constellation simulation. Zero fields take the paper's
// defaults (§5.3): leader-follower organization, one follower per group,
// ILP scheduling, YOLO-nano detection, 3 deg/s slew, 24 h.
type Config struct {
	// Organization is one of LowResOnly, HighResOnly, LeaderFollower,
	// MixCamera. Empty means LeaderFollower.
	Organization string
	// Satellites is the total satellite count, at most MaxSatellites.
	// Zero means 2.
	Satellites int
	// FollowersPerGroup applies to LeaderFollower (default 1).
	FollowersPerGroup int
	// Dataset names a built-in workload; leave empty when Targets is set.
	Dataset string
	// Targets supplies a custom world instead of a built-in dataset.
	Targets []Target
	// MovingTargets marks the custom world as moving.
	MovingTargets bool
	// Scheduler is SchedulerILP (default), SchedulerGreedy or SchedulerABB.
	Scheduler string
	// Detector names a YOLO variant ("yolo_n".."yolo_x"); default yolo_n.
	Detector string
	// SlewRateDegS overrides the ADACS rate (default 3).
	SlewRateDegS float64
	// DurationHours is the simulated span, at most MaxDurationHours
	// (default 24).
	DurationHours float64
	// Seed fixes all randomness (default 1).
	Seed int64
	// NoClustering disables target clustering.
	NoClustering bool
	// GreedyClustering forces the greedy rectangle cover.
	GreedyClustering bool
	// DisableWarmStart turns off the cross-frame warm-start pipeline of
	// the default ILP scheduler and clusterer (per-leader solver state,
	// previous-schedule projection, LP basis reuse, incremental model
	// construction). For A/B measurement; the default (warm) is faster
	// and produces the same results.
	DisableWarmStart bool
	// RecallOverride in (0,1] overrides detector recall.
	RecallOverride float64
	// MixComputeDelayS sets the mix-camera compute latency (Fig. 13).
	MixComputeDelayS float64
	// OrbitPlanes spreads groups across this many orbital planes
	// (the §4.7 orbit-design extension; 0 or 1 keeps one plane).
	OrbitPlanes int
	// RecaptureDedup deprioritizes detections at already-captured
	// positions (the §4.7 recapture extension).
	RecaptureDedup bool
	// Events schedules mid-run fault injections (satellite failures,
	// leader re-elections) at simulated-time boundaries. Events are part
	// of the scenario: they are deterministic for any Workers value and
	// survive checkpoint/restore exactly.
	Events []FaultEvent
	// Continuous makes Session.Step advance one uninterrupted simulation
	// timeline (steppers, solver warm state and statistics carry across
	// steps) instead of running independent windows. Continuous sessions
	// support Checkpoint / RestoreSession mid-run. Ignored by Run, which
	// is always one continuous timeline.
	Continuous bool
	// Trace, when non-nil, receives one JSON line per processed leader
	// frame: what was in view, what was detected, what the schedule did.
	// Not serialized by Session.Checkpoint.
	Trace io.Writer `json:"-"`
	// Metrics, when non-nil, receives run metrics: event counters, stage
	// wall-time breakdowns, solver activity and progress gauges. Integer
	// event counters are deterministic across Workers; timing series are
	// machine-dependent. Serve it live with ServeMetrics or snapshot it
	// with WritePrometheus / WriteSummary after Run returns. Not
	// serialized by Session.Checkpoint.
	Metrics *MetricsRegistry `json:"-"`
	// Flight, when non-nil, records per-frame span trees into the flight
	// recorder (see FlightRecorder). Like Metrics it is a runtime
	// attachment: not serialized by Session.Checkpoint, and a nil
	// recorder leaves the frame loop byte-identical to an unrecorded
	// run.
	Flight *FlightRecorder `json:"-"`
	// Workers runs independent constellation groups (or strip satellites)
	// on this many goroutines: 0 means all CPUs, 1 sequential. Results
	// and traces are deterministic for any value at a fixed seed. Up to
	// two helper goroutines run beyond Workers: a moving world
	// (airplanes) builds the next hour's target index on one while this
	// hour's frames run, and leader-follower and mix-camera runs compute
	// the leaders' frame queries ahead of the frame loops on the other.
	// The second starts only for two or more groups, run fewer at a time
	// than the process has CPUs (GOMAXPROCS): never on one CPU, nor at
	// Workers 0 with at least as many groups as CPUs.
	Workers int
}

// Target is a ground target in a custom world.
type Target struct {
	Lat, Lon   float64 // degrees
	SpeedMS    float64 // 0 for static targets
	HeadingDeg float64
	Value      float64 // priority in (0,1]; 0 means 1.0
}

// Fault-event kinds accepted by FaultEvent.Kind.
const (
	// FaultFollowerFail removes one follower from its group (or retires
	// the addressed satellite in the strip baselines). A group whose
	// followers have all failed degrades to seen-only accounting.
	FaultFollowerFail = "follower-fail"
	// FaultLeaderFail fails a group's current leader; the first surviving
	// follower is re-elected in its place. With no survivor (or on a
	// mix-camera satellite) the group goes dark.
	FaultLeaderFail = "leader-fail"
)

// FaultEvent schedules one mid-run fault (Config.Events). The fault takes
// effect at the first frame boundary at or after AtHours.
type FaultEvent struct {
	// AtHours is the simulated time of the fault, in hours from run start.
	AtHours float64
	// Kind is FaultFollowerFail or FaultLeaderFail.
	Kind string
	// Group addresses the leader group (leader-follower, mix-camera) or
	// the satellite index (strip baselines).
	Group int
	// Follower addresses the failing follower within the group
	// (FaultFollowerFail on leader-follower organizations only).
	Follower int
}

// Result summarizes a simulation.
type Result struct {
	Organization string
	Dataset      string
	Satellites   int

	// CoveragePct is the percentage of targets captured at high
	// resolution (Low-Res-Only reports low-resolution visibility, which
	// the paper plots as the physical ceiling).
	CoveragePct float64
	// LowResSeenPct is the fraction of targets any leader saw.
	LowResSeenPct float64

	TotalTargets    int
	HighResCaptured int
	Frames          int
	Detections      int
	Captures        int

	// SchedulerMeanMS / SchedulerMaxMS report per-frame scheduling time.
	SchedulerMeanMS float64
	SchedulerMaxMS  float64
	MissedDeadlines int

	// Solver cost totals across all scheduling and clustering ILP solves:
	// branch-and-bound nodes, simplex iterations, and milliseconds spent
	// inside the LP pivot loop.
	SolverNodes   int
	SolverIters   int
	SolverPivotMS float64

	// RecaptureSuppressed counts re-detections deprioritized by the
	// recapture extension.
	RecaptureSuppressed int

	// Fault-event accounting (Config.Events): events applied so far,
	// satellites lost to them, and leader re-elections performed.
	EventsApplied     int
	SatsFailed        int
	LeaderReelections int

	// CrosslinkKB is the total leader-to-follower schedule traffic in
	// kilobytes (wire encoding).
	CrosslinkKB float64
	// DownlinkableFraction is the share of captured imagery the followers'
	// ground contacts can return to Earth.
	DownlinkableFraction float64

	// LeaderEnergyUtilization is per-orbit consumption over harvest.
	LeaderEnergyUtilization   float64
	FollowerEnergyUtilization float64
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	simCfg, err := toSimConfig(cfg)
	if err != nil {
		return nil, err
	}
	r, err := sim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	return resultFromSim(r, simCfg.Constellation.Satellites), nil
}

// resultFromSim converts the simulator's result to the facade shape.
func resultFromSim(r *sim.Result, satellites int) *Result {
	out := &Result{
		Organization:         r.Kind,
		Dataset:              r.App,
		Satellites:           satellites,
		CoveragePct:          r.CoveragePct(),
		LowResSeenPct:        r.LowResSeenPct(),
		TotalTargets:         r.TotalTargets,
		HighResCaptured:      r.HighResCaptured,
		Frames:               r.Frames,
		Detections:           r.Detections,
		Captures:             r.Captures,
		MissedDeadlines:      r.MissedDeadline,
		RecaptureSuppressed:  r.RecaptureSuppressed,
		EventsApplied:        r.EventsApplied,
		SatsFailed:           r.SatsFailed,
		LeaderReelections:    r.LeaderReelections,
		CrosslinkKB:          r.CrosslinkBytes / 1024,
		DownlinkableFraction: r.DownlinkableFraction,
	}
	if r.SchedSolves > 0 {
		out.SchedulerMeanMS = float64(r.SchedWallTotal.Microseconds()) / 1000 / float64(r.SchedSolves)
		out.SchedulerMaxMS = float64(r.SchedWallMax.Microseconds()) / 1000
	}
	out.SolverNodes = r.SchedNodes + r.ClusterNodes
	out.SolverIters = r.SchedIters + r.ClusterIters
	out.SolverPivotMS = float64((r.SchedPivotWall + r.ClusterPivotWall).Microseconds()) / 1000
	if r.LeaderBudget != nil {
		out.LeaderEnergyUtilization = r.LeaderBudget.Utilization()
	}
	if r.FollowerBudget != nil {
		out.FollowerEnergyUtilization = r.FollowerBudget.Utilization()
	}
	return out
}

// toSimConfig checks cfg and translates it into a simulator config,
// generating its named dataset.
func toSimConfig(cfg Config) (sim.Config, error) {
	out, err := checkConfig(cfg)
	if err != nil || out.App != nil {
		return out, err
	}
	out.App, err = dataset.ByName(cfg.Dataset, out.Seed)
	return out, err
}

// checkConfig checks cfg and translates it into a simulator config,
// leaving App nil for a named dataset: the name is checked, but its
// targets are generated only by toSimConfig, so a session is created
// without building a world it would build again on its first step.
func checkConfig(cfg Config) (sim.Config, error) {
	var out sim.Config

	kind := constellation.LeaderFollower
	switch strings.ToLower(cfg.Organization) {
	case "", LeaderFollower:
	case LowResOnly:
		kind = constellation.LowResOnly
	case HighResOnly:
		kind = constellation.HighResOnly
	case MixCamera:
		kind = constellation.MixCamera
	default:
		return out, fmt.Errorf("eagleeye: unknown organization %q", cfg.Organization)
	}
	sats := cfg.Satellites
	if sats == 0 {
		sats = 2
	}
	if sats > MaxSatellites {
		return out, fmt.Errorf("eagleeye: %d satellites exceeds the bound of %d", sats, MaxSatellites)
	}
	if cfg.DurationHours > MaxDurationHours {
		return out, fmt.Errorf("eagleeye: %v h duration exceeds the bound of %d h", cfg.DurationHours, MaxDurationHours)
	}
	out.Constellation = constellation.Config{
		Kind:              kind,
		Satellites:        sats,
		FollowersPerGroup: cfg.FollowersPerGroup,
		Planes:            cfg.OrbitPlanes,
	}

	switch {
	case cfg.Targets != nil:
		set := &dataset.Set{Name: "custom", Moving: cfg.MovingTargets}
		for i, t := range cfg.Targets {
			v := t.Value
			if v == 0 {
				v = 1
			}
			set.Targets = append(set.Targets, dataset.Target{
				ID:         i,
				Pos:        geo.LatLon{Lat: t.Lat, Lon: t.Lon}.Normalize(),
				SpeedMS:    t.SpeedMS,
				HeadingDeg: t.HeadingDeg,
				Value:      v,
			})
		}
		if err := set.Validate(); err != nil {
			return out, err
		}
		out.App = set
	case cfg.Dataset != "":
		if _, err := dataset.Generator(cfg.Dataset); err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("eagleeye: set Dataset or Targets")
	}

	switch strings.ToLower(cfg.Scheduler) {
	case "", SchedulerILP:
		// sim picks the bounded-ILP default.
	case SchedulerGreedy:
		out.Scheduler = sched.Greedy{}
	case SchedulerABB:
		out.Scheduler = sched.ABB{}
	default:
		return out, fmt.Errorf("eagleeye: unknown scheduler %q", cfg.Scheduler)
	}

	if cfg.Detector != "" {
		found := false
		for _, m := range detect.Catalogue() {
			if m.Name == strings.ToLower(cfg.Detector) {
				out.Detector = m
				found = true
				break
			}
		}
		if !found {
			return out, fmt.Errorf("eagleeye: unknown detector %q", cfg.Detector)
		}
	}

	for i, ev := range cfg.Events {
		var kind sim.EventKind
		switch strings.ToLower(ev.Kind) {
		case FaultFollowerFail:
			kind = sim.EventFollowerFail
		case FaultLeaderFail:
			kind = sim.EventLeaderFail
		default:
			return out, fmt.Errorf("eagleeye: event %d: unknown kind %q", i, ev.Kind)
		}
		out.Events = append(out.Events, sim.Event{
			AtS:      ev.AtHours * 3600,
			Kind:     kind,
			Group:    ev.Group,
			Follower: ev.Follower,
		})
	}

	out.NoClustering = cfg.NoClustering
	out.ClusterGreedy = cfg.GreedyClustering
	out.DisableWarmStart = cfg.DisableWarmStart
	out.RecaptureDedup = cfg.RecaptureDedup
	out.Trace = cfg.Trace
	out.Metrics = cfg.Metrics
	out.Flight = cfg.Flight
	out.Workers = cfg.Workers
	out.RecallOverride = cfg.RecallOverride
	out.SlewRateDegS = cfg.SlewRateDegS
	out.ComputeDelayS = cfg.MixComputeDelayS
	out.Seed = cfg.Seed
	if out.Seed == 0 {
		out.Seed = 1
	}
	if cfg.DurationHours > 0 {
		out.DurationS = cfg.DurationHours * 3600
	}
	return out, nil
}

// ---- Standalone onboard algorithms ----

// ScheduleRequest is a standalone actuation-aware scheduling instance in
// frame-local coordinates (meters; X cross-track, Y along-track; the
// followers advance along +Y).
type ScheduleRequest struct {
	// Targets to capture: positions and priorities.
	Targets []SchedTarget
	// FollowerOffsetsM places each follower's sub-point behind the frame
	// center (positive distances trail).
	FollowerOffsetsM []float64
	// AltitudeM, GroundSpeedMS, MaxOffNadirDeg, SlewRateDegS default to
	// the paper's parameters when zero.
	AltitudeM      float64
	GroundSpeedMS  float64
	MaxOffNadirDeg float64
	SlewRateDegS   float64
	// Algorithm is SchedulerILP (default), SchedulerGreedy or SchedulerABB.
	Algorithm string
}

// SchedTarget is one capture task for Schedule.
type SchedTarget struct {
	X, Y  float64 // frame-local meters
	Value float64 // priority; 0 means 1
}

// PlannedCapture is one scheduled image.
type PlannedCapture struct {
	TargetIndex int     // index into ScheduleRequest.Targets
	Follower    int     // which follower performs it
	TimeS       float64 // seconds from schedule start
}

// Schedule runs the actuation-aware scheduler on a standalone instance and
// returns the per-follower capture plan in execution order.
func Schedule(req ScheduleRequest) ([]PlannedCapture, error) {
	env := sched.Env{
		AltitudeM:      orDefault(req.AltitudeM, 475e3),
		GroundSpeedMS:  orDefault(req.GroundSpeedMS, 7300),
		MaxOffNadirDeg: orDefault(req.MaxOffNadirDeg, 11),
		Slew:           adacs.SlewModel{RateDegS: orDefault(req.SlewRateDegS, 3), OverheadS: 0.67},
	}
	prob := &sched.Problem{Env: env}
	for i, t := range req.Targets {
		v := t.Value
		if v == 0 {
			v = 1
		}
		prob.Targets = append(prob.Targets, sched.Target{
			ID: i, Pos: geo.Point2{X: t.X, Y: t.Y}, Value: v,
		})
	}
	offsets := req.FollowerOffsetsM
	if len(offsets) == 0 {
		offsets = []float64{100e3}
	}
	for _, off := range offsets {
		sub := geo.Point2{X: 0, Y: -off}
		prob.Followers = append(prob.Followers, sched.Follower{SubPoint: sub, Boresight: sub})
	}
	var solver sched.Scheduler
	switch strings.ToLower(req.Algorithm) {
	case "", SchedulerILP:
		solver = sched.ILP{MIP: mip.Options{TimeLimit: 2 * time.Second}}
	case SchedulerGreedy:
		solver = sched.Greedy{}
	case SchedulerABB:
		solver = sched.ABB{}
	default:
		return nil, fmt.Errorf("eagleeye: unknown scheduler %q", req.Algorithm)
	}
	s, err := solver.Schedule(prob)
	if err != nil {
		return nil, err
	}
	var out []PlannedCapture
	for fi, seq := range s.Captures {
		for _, c := range seq {
			out = append(out, PlannedCapture{TargetIndex: c.TargetID, Follower: fi, TimeS: c.Time})
		}
	}
	return out, nil
}

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Box is an axis-aligned rectangle in frame-local meters.
type Box struct {
	MinX, MinY, MaxX, MaxY float64
	// Members indexes the input points covered by this box.
	Members []int
}

// ClusterTargets covers the points (frame-local meters) with the minimum
// number of swathM x swathM high-resolution footprints (the §4.1 target
// clustering ILP). Each point belongs to exactly one box.
func ClusterTargets(xs, ys []float64, swathM float64) ([]Box, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("eagleeye: xs and ys lengths differ (%d vs %d)", len(xs), len(ys))
	}
	pts := make([]geo.Point2, len(xs))
	for i := range xs {
		pts[i] = geo.Point2{X: xs[i], Y: ys[i]}
	}
	cs, _, err := cluster.Cover(pts, swathM, swathM, cluster.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]Box, len(cs))
	for i, c := range cs {
		out[i] = Box{
			MinX: c.Box.Min.X, MinY: c.Box.Min.Y,
			MaxX: c.Box.Max.X, MaxY: c.Box.Max.Y,
			Members: c.Members,
		}
	}
	return out, nil
}

// MaxLookaheadM returns the maximum leader-to-follower lookahead distance
// for a target moving at targetSpeedMS (§4.6, Fig. 10), using the paper's
// satellite speed, swath and slack when the remaining arguments are zero.
func MaxLookaheadM(targetSpeedMS, satSpeedMS, swathM, gamma float64) float64 {
	return core.MaxLookaheadM(
		orDefault(satSpeedMS, 7500),
		targetSpeedMS,
		orDefault(swathM, 10e3),
		orDefault(gamma, 0.1),
	)
}

// Camera describes an imaging payload operating point for CameraCatalogue.
type Camera struct {
	Name   string
	SwathM float64
	GSDM   float64
}

// CameraCatalogue returns the real cubesat cameras of Fig. 4 (left),
// spanning the swath/GSD tradeoff, plus the paper's leader and follower
// cameras.
func CameraCatalogue() []Camera {
	var out []Camera
	for _, m := range append(camera.Catalogue(), camera.PaperLowRes(), camera.PaperHighRes()) {
		out = append(out, Camera{Name: m.Name, SwathM: m.SwathM, GSDM: m.GSDM})
	}
	return out
}

// EnergyReport is the per-orbit energy accounting for one satellite role
// (the paper's Fig. 16 analysis). All energies in joules.
type EnergyReport struct {
	Role        string
	TileFactor  float64
	CameraJ     float64
	ADACSJ      float64
	ComputeJ    float64
	RadioJ      float64 // downlink + crosslink
	TotalJ      float64
	HarvestJ    float64
	Utilization float64
	Feasible    bool
}

// EnergyBudget computes the analytic per-orbit energy budget for a role
// ("low-res-baseline", "high-res-baseline", "leader", "follower") at the
// given frame tiling factor (1, 2, 4) and detector variant (default
// yolo_m, following the paper's energy analysis).
func EnergyBudget(role string, tileFactor float64, detector string) (EnergyReport, error) {
	var r energy.Role
	switch strings.ToLower(role) {
	case "low-res-baseline":
		r = energy.RoleLowResBaseline
	case "high-res-baseline":
		r = energy.RoleHighResBaseline
	case "leader":
		r = energy.RoleLeader
	case "follower":
		r = energy.RoleFollower
	default:
		return EnergyReport{}, fmt.Errorf("eagleeye: unknown role %q", role)
	}
	model := detect.YoloM()
	if detector != "" {
		found := false
		for _, m := range detect.Catalogue() {
			if m.Name == strings.ToLower(detector) {
				model = m
				found = true
				break
			}
		}
		if !found {
			return EnergyReport{}, fmt.Errorf("eagleeye: unknown detector %q", detector)
		}
	}
	if tileFactor <= 0 {
		tileFactor = 1
	}
	p := energy.Paper3U()
	frameS := detect.PaperTiling().FrameTimeS(model)
	b := energy.PerOrbitBudget(p, energy.PaperProfile(r, tileFactor, frameS))
	return EnergyReport{
		Role:        r.String(),
		TileFactor:  tileFactor,
		CameraJ:     b.CameraJ,
		ADACSJ:      b.ADACSJ,
		ComputeJ:    b.ComputeJ,
		RadioJ:      b.TXJ + b.CrosslinkJ,
		TotalJ:      b.TotalJ(),
		HarvestJ:    p.HarvestPerOrbitJ(),
		Utilization: b.Utilization(),
		Feasible:    b.Feasible(),
	}, nil
}

// PlanTiling selects the finest frame tiling (smallest tile edge, best
// small-object accuracy) that fits the leader's frame deadline and
// per-orbit compute-energy budget (§4.1). detector names a YOLO variant
// (default yolo_n); deadlineS 0 means the paper's 13.7 s frame cadence;
// energyJ 0 skips the energy check. It returns the chosen tile edge in
// pixels and the implied frame processing time.
func PlanTiling(detector string, deadlineS, energyJ float64) (tilePx int, frameTimeS float64, err error) {
	model := detect.YoloN()
	if detector != "" {
		found := false
		for _, m := range detect.Catalogue() {
			if m.Name == strings.ToLower(detector) {
				model = m
				found = true
				break
			}
		}
		if !found {
			return 0, 0, fmt.Errorf("eagleeye: unknown detector %q", detector)
		}
	}
	if deadlineS == 0 {
		deadlineS = 13.7
	}
	tl, ft, err := detect.ChooseTiling(model, detect.PaperTiling().FramePx, nil, detect.TilingBudget{
		DeadlineS:       deadlineS,
		EnergyPerOrbitJ: energyJ,
	})
	if err != nil {
		return 0, 0, err
	}
	return tl.TilePx, ft, nil
}

// GroundContactPerOrbitS predicts the usable downlink seconds per orbit
// for the paper's orbit over a representative commercial ground-station
// network -- the geometric counterpart of the paper's "six minutes each
// period" assumption (§5.3).
func GroundContactPerOrbitS() (float64, error) {
	prop, err := orbit.New(sim.DefaultEpoch, 475e3, 97.2, 0, 0)
	if err != nil {
		return 0, err
	}
	return comms.ContactSPerOrbit(prop, comms.CommercialNetwork(), 6*prop.PeriodSeconds())
}
