package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/cluster"
	"eagleeye/internal/core"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/obs"
	"eagleeye/internal/sched"
)

// frame-dense: a sequence of single dense frames through
// core.ShardedPipeline.ProcessFrame, at the default crossover, with the
// paper detector and tiling, 8 followers 15 km apart (as cmd/benchsim
// sweeps them), and a Parallel executor of GOMAXPROCS goroutines. Target
// counts cycle through frameCycle with fresh uniform truth per frame;
// solver budgets are high enough that no solve stops on the wall clock, so
// a frame's result is a pure function of its inputs.
//
// The cycle is the 16-25-shard regime. Frames of 10k and 20k targets land
// on 4-6 shards whose 24-35-cluster ILPs cost 0.2 s to 2.4 s from one
// frame to the next, which no run of this length averages out; they stay
// in the unsharded reference (reference.go), run once.

var (
	frameCycle     = []int{50000, 100000, 200000}
	frameCycleTiny = []int{1500, 3000}
	// referenceCycle is the dense-shard part of the sequence the unsharded
	// reference compares against the 1x1 plan.
	referenceCycle = []int{10000, 20000, 100000}
)

const (
	frameEdgeM  = 100e3 // low-resolution footprint edge
	frameSwathM = 10e3  // follower footprint edge
)

// tinyPerShard is the crossover the tiny scale uses, so its small frames
// still shard.
const tinyPerShard = 400

// frameInputs is one frame's generated input.
type frameInputs struct {
	frame core.Frame
	seed  int64
}

func makeFrame(seed int64, i int, n int) frameInputs {
	s := derive(seed, i)
	rng := rand.New(rand.NewSource(s))
	pts := make([]geo.Point2, n)
	for k := range pts {
		pts[k] = geo.Point2{X: (rng.Float64() - 0.5) * frameEdgeM, Y: (rng.Float64() - 0.5) * frameEdgeM}
	}
	return frameInputs{
		frame: core.Frame{Truth: pts, Bounds: geo.NewRectCentered(geo.Point2{}, frameEdgeM, frameEdgeM), GSDM: 30},
		seed:  s,
	}
}

func frameFollowers() ([]sched.Follower, sched.Env) {
	fols := make([]sched.Follower, 8)
	for i := range fols {
		p := geo.Point2{Y: -100e3 - 15e3*float64(i)}
		fols[i] = sched.Follower{SubPoint: p, Boresight: p}
	}
	return fols, sched.Env{AltitudeM: 475e3, GroundSpeedMS: 7300, MaxOffNadirDeg: 11, Slew: adacs.PaperSlew()}
}

// frameTracer holds the benchmark's timers around the public calls a
// traced pipeline makes: every shard's Schedule call and every Parallel
// section.
type frameTracer struct {
	mu         sync.Mutex
	solves     int
	fallbacks  int
	schedBusy  time.Duration
	maxTargets int

	parStart, parEnd time.Time // last Parallel section (frame goroutine only)
	parCalled        bool
}

// timedScheduler wraps one shard's scheduler with the tracer's timer.
type timedScheduler struct {
	sched.Scheduler
	t *frameTracer
}

func (s timedScheduler) Schedule(p *sched.Problem) (sched.Schedule, error) {
	start := time.Now()
	out, err := s.Scheduler.Schedule(p)
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.solves++
	s.t.schedBusy += d
	if out.SolveStats.Fallback {
		s.t.fallbacks++
	}
	if len(p.Targets) > s.t.maxTargets {
		s.t.maxTargets = len(p.Targets)
	}
	s.t.mu.Unlock()
	return out, err
}

// newFramePipeline builds the frame-dense pipeline. perShard <= 0 keeps
// the default crossover. With a tracer, per-stage timing (Pipeline.Timed),
// the solver metrics registry and the benchmark's wrappers are attached.
func newFramePipeline(perShard int, reg *obs.Registry, tr *frameTracer) *core.ShardedPipeline {
	opts := mip.Options{TimeLimit: time.Minute, MaxNodes: 100000}
	copts, sopts := opts, opts
	if reg != nil {
		copts.Metrics = obs.NewSolverMetrics(reg, "cluster")
		sopts.Metrics = obs.NewSolverMetrics(reg, "sched")
	}
	workers := runtime.GOMAXPROCS(0)
	sp := &core.ShardedPipeline{
		Template: core.Pipeline{
			Detector:      detect.YoloN(),
			Tiling:        detect.PaperTiling(),
			UseClustering: true,
			ClusterOpts:   cluster.Options{MaxCoverPoints: 256, MaxILPCandidates: 400, MIP: copts},
			HighResSwathM: frameSwathM,
			Timed:         tr != nil,
		},
		NewScheduler: func() sched.Scheduler {
			s := sched.Scheduler(sched.ILP{State: sched.NewSolverState(), MIP: sopts})
			if tr != nil {
				s = timedScheduler{s, tr}
			}
			return s
		},
		NewClusterState: cluster.NewSolverState,
		PerShardTargets: perShard,
	}
	parallel := func(n int, fn func(int)) {
		w := workers
		if w > n {
			w = n
		}
		var wg sync.WaitGroup
		next := int32(-1)
		for ; w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt32(&next, 1))
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
	sp.Parallel = parallel
	if tr != nil {
		sp.Parallel = func(n int, fn func(int)) {
			tr.parStart = time.Now()
			parallel(n, fn)
			tr.parEnd = time.Now()
			tr.parCalled = true
		}
	}
	return sp
}

// frameRun is one processed frame.
type frameRun struct {
	start    time.Time
	wall     time.Duration
	res      core.Result
	stats    core.ShardFrameStats
	covered  int
	captures int
}

// processFrame runs, validates and scores one frame.
func processFrame(o *outcome, sp *core.ShardedPipeline, in frameInputs, seen *[]bool) (*frameRun, error) {
	fols, env := frameFollowers()
	start := time.Now()
	res, stats, err := sp.ProcessFrame(in.frame, fols, env, in.seed)
	wall := time.Since(start)
	o.op(err)
	if err != nil {
		return nil, err
	}
	if err := validateFrame(&res, fols, env); err != nil {
		o.check(false, "frame of %d targets: stitched schedule: %v", len(in.frame.Truth), err)
	} else {
		o.check(true, "")
	}
	fr := &frameRun{start: start, wall: wall, res: res, stats: stats, captures: res.Schedule.NumCaptures()}
	fr.covered = coveredTruth(in.frame.Truth, &res, seen)
	o.check(fr.captures > 0 && fr.covered > 0, "frame of %d targets: %d captures cover %d targets", len(in.frame.Truth), fr.captures, fr.covered)
	return fr, nil
}

// validateFrame re-checks the stitched schedule against constraints C1-C3
// on the problem the merged clusters define (target ID = merged cluster
// index, value = summed member confidence).
func validateFrame(res *core.Result, fols []sched.Follower, env sched.Env) error {
	targets := make([]sched.Target, len(res.Clusters))
	for i, c := range res.Clusters {
		val := 0.0
		for _, m := range c.Members {
			val += res.Detections[m].Confidence
		}
		targets[i] = sched.Target{ID: i, Pos: c.Center(), Value: val}
	}
	return sched.ValidateSchedule(&sched.Problem{Env: env, Targets: targets, Followers: fols}, &res.Schedule)
}

// coveredTruth counts the distinct truth targets inside the stitched
// capture footprints.
func coveredTruth(truth []geo.Point2, res *core.Result, seen *[]bool) int {
	if cap(*seen) < len(truth) {
		*seen = make([]bool, len(truth))
	}
	s := (*seen)[:len(truth)]
	for i := range s {
		s[i] = false
	}
	n := 0
	for _, fp := range res.CaptureFootprints(frameSwathM) {
		for i, p := range truth {
			if !s[i] && fp.Contains(p) {
				s[i] = true
				n++
			}
		}
	}
	return n
}

// setupFramePipeline builds the pipeline and runs one warm-up frame.
func setupFramePipeline(o *outcome, seed int64, cycle []int, perShard int, reg *obs.Registry, tr *frameTracer) (*core.ShardedPipeline, time.Duration, error) {
	start := time.Now()
	sp := newFramePipeline(perShard, reg, tr)
	var seen []bool
	if _, err := processFrame(o, sp, makeFrame(seed, -1, cycle[0]), &seen); err != nil {
		sp.Close()
		return nil, 0, err
	}
	return sp, time.Since(start), nil
}

func runFrameDense(c runConfig) (*outcome, error) {
	cycle, perShard := frameCycle, 0
	if c.tiny {
		cycle, perShard = frameCycleTiny, tinyPerShard
	}
	if c.trace {
		return traceFrameDense(c, cycle, perShard)
	}
	o := newOutcome()
	var setups []float64
	var sp *core.ShardedPipeline
	for i := 0; i < setupReps; i++ {
		if sp != nil {
			sp.Close()
		}
		var d time.Duration
		var err error
		if sp, d, err = setupFramePipeline(o, c.seed, cycle, perShard, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer sp.Close()

	// Throughput is taken from the median cycle, so a slow spell of the
	// host during a few cycles does not move it.
	var (
		frameMS, cycleS  []float64
		cycle0           time.Duration
		covered, targets int
		seen             []bool
	)
	start := time.Now()
	for i := 0; i%len(cycle) != 0 || i == 0 || time.Since(start).Seconds() < c.seconds; i++ {
		in := makeFrame(c.seed, i, cycle[i%len(cycle)])
		fr, err := processFrame(o, sp, in, &seen)
		if err != nil {
			return nil, err
		}
		frameMS = append(frameMS, ms(fr.wall))
		if cycle0 += fr.wall; (i+1)%len(cycle) == 0 {
			cycleS = append(cycleS, cycle0.Seconds())
			cycle0 = 0
		}
		covered += fr.covered
		targets += len(in.frame.Truth)
		if i < len(cycle) {
			o.counters[fmt.Sprintf("captures_%d", cycle[i])] = int64(fr.captures)
			o.counters[fmt.Sprintf("covered_%d", cycle[i])] = int64(fr.covered)
			o.counters[fmt.Sprintf("clusters_%d", cycle[i])] = int64(len(fr.res.Clusters))
		}
	}
	o.e2e("setup_s", median(setups))
	o.e2e("peak_rss_mb", peakRSSMB())
	o.e2e("work_per_s", float64(len(cycle))/median(cycleS))
	o.e2e("op_p50_ms", pct(frameMS, 50))
	o.e2e("op_p90_ms", pct(frameMS, 90))
	o.e2e("coverage_pct", 100*float64(covered)/float64(targets))
	return o, nil
}

// traceFrameDense processes the same frames through a plain and a traced
// pipeline. Results must match exactly; the traced pipeline's timers give
// the per-layer split of the frame wall time into the serial part of
// ProcessFrame (plan, partition, merge, stitch) and the parallel section.
func traceFrameDense(c runConfig, cycle []int, perShard int) (*outcome, error) {
	o := newLayerOutcome()
	frames := 10 * len(cycle)
	if c.tiny {
		frames = len(cycle)
	}
	plainSP, _, err := setupFramePipeline(o, c.seed, cycle, perShard, nil, nil)
	if err != nil {
		return nil, err
	}
	defer plainSP.Close()
	reg := obs.NewRegistry()
	tr := &frameTracer{}
	tracedSP, _, err := setupFramePipeline(o, c.seed, cycle, perShard, reg, tr)
	if err != nil {
		return nil, err
	}
	defer tracedSP.Close()
	// The warm-up frame's solver counts are set-up, not measurement.
	base := readRegistry(reg)
	tr.solves, tr.fallbacks, tr.schedBusy, tr.maxTargets = 0, 0, 0, 0

	var (
		seen                           []bool
		plainWall, tracedWall          time.Duration
		serial, parallel, critical     time.Duration
		detectBusy, clusterBusy        time.Duration
		dets, clusters, shards         int
		dropped, fallbacks, coveredSum int
		imbalance                      float64
		frameSched                     []float64
	)
	for i := 0; i < frames; i++ {
		in := makeFrame(c.seed, i, cycle[i%len(cycle)])
		p, err := processFrame(o, plainSP, in, &seen)
		if err != nil {
			return nil, err
		}
		plainWall += p.wall
		tr.parCalled = false
		t, err := processFrame(o, tracedSP, in, &seen)
		if err != nil {
			return nil, err
		}
		tracedWall += t.wall
		if tr.parCalled {
			parallel += tr.parEnd.Sub(tr.parStart)
			serial += tr.parStart.Sub(t.start) + t.start.Add(t.wall).Sub(tr.parEnd)
		} else {
			serial += t.wall
		}
		o.check(p.captures == t.captures && p.covered == t.covered && len(p.res.Clusters) == len(t.res.Clusters),
			"frame %d: traced pipeline scheduled %d captures covering %d, plain %d covering %d", i, t.captures, t.covered, p.captures, p.covered)
		critical += t.res.SchedWall
		frameSched = append(frameSched, ms(t.res.SchedWall))
		detectBusy += t.res.DetectWall
		clusterBusy += t.res.ClusterWall
		dets += len(t.res.Detections)
		clusters += len(t.res.Clusters)
		shards += t.stats.Shards
		dropped += t.stats.DroppedCaptures
		fallbacks += t.stats.ClusterFallbacks + t.stats.SchedFallbacks
		coveredSum += t.covered
		if im := t.stats.Imbalance(); im > imbalance {
			imbalance = im
		}
		o.counters[fmt.Sprintf("captures_%d", i)] = int64(t.captures)
		o.counters[fmt.Sprintf("covered_%d", i)] = int64(t.covered)
	}

	rd := readRegistry(reg).minus(base)
	o.apply(rd)
	o.layer("detect.ms", ms(detectBusy))
	o.layer("detect.detections", float64(dets))
	o.layer("cluster.ms", ms(clusterBusy))
	o.layer("cluster.clusters", float64(clusters))
	o.layer("sched.ms", ms(tr.schedBusy))
	o.layer("sched.solves", float64(tr.solves))
	o.layer("sched.fallbacks", float64(tr.fallbacks))
	o.layer("sched.frame_p50_ms", pct(frameSched, 50))
	o.layer("sched.frame_max_ms", pct(frameSched, 100))
	o.layer("core.shards", float64(shards))
	o.layer("core.shard_imbalance", imbalance)
	o.layer("core.dropped_captures", float64(dropped))
	o.layer("core.fallbacks", float64(fallbacks))
	o.layer("core.parallel_ms", ms(parallel))
	o.layer("core.serial_ms", ms(serial))
	o.layer("core.shard_sched_max_ms", ms(critical))
	o.layer("core.shard_problem_targets_max", float64(tr.maxTargets))
	o.layer("core.covered_per_frame", float64(coveredSum)/float64(frames))
	o.layer("obs.trace_overhead_pct", 100*(tracedWall.Seconds()/plainWall.Seconds()-1))
	o.reconcile("frame-dense", ms(tracedWall))
	o.check(tr.solves == shards, "timed %d shard solves for %d shards", tr.solves, shards)
	o.counters["lp_iters"] = int64(rd["lp.iters"])
	o.counters["mip_nodes"] = int64(rd["mip.nodes"])
	o.counters["lp_sparse_solves"] = int64(rd["lp.sparse_solves"])
	o.counters["lp_dense_solves"] = int64(rd["lp.dense_solves"])
	return o, nil
}
