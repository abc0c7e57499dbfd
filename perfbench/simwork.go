package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
	"eagleeye/internal/sim"
)

// simWorkload is a full simulator run driven through sim.NewRunner ->
// Advance -> Result: a standard dataset, an 8-satellite leader-follower
// constellation, Workers=1, the default warm ILP, no sharding. One unit is
// one simulated span; a run measures as many units as fit its time, each
// on its own dataset and simulator seed derived from --seed, because a
// single unit's cost swings by a third from seed to seed (a few frames
// dominate it) and averaging units is what makes the run steady.
type simWorkload struct {
	dataset string
	hours   float64 // simulated span of one unit
	// verifyHours is the prefix of the first unit re-run with schedule
	// validation on and compared field by field.
	verifyHours float64
}

// windowHours is the simulated span of one Advance call: one operation.
// Units run one at a time: two side by side (one per CPU) doubled the
// units per run but widened the run-to-run spread over ten seeds from 9%
// to 20% (ships) and from 6% to 22% (airplanes).
const windowHours = 0.25

var (
	simShips     = simWorkload{dataset: "ships", hours: 24, verifyHours: 3}
	simAirplanes = simWorkload{dataset: "airplanes", hours: 24, verifyHours: 3}
)

// setupReps is how many extra set-ups a run times before measuring, so
// setup_s is a median even when few units fit.
const setupReps = 5

// schedLimitS is the default scheduler's per-solve wall-clock limit
// (internal/sim: 500 ms); a solve near it may have been cut by the clock,
// the one tolerated source of run-to-run differences.
const schedLimitS = 0.5

func (w simWorkload) config(set *dataset.Set, seed int64) sim.Config {
	return sim.Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:           set,
		DurationS:     w.hours * 3600,
		Seed:          seed,
		Workers:       1,
	}
}

// newUnit builds unit k's dataset and runner: the set-up the workload
// times.
func (w simWorkload) newUnit(seed int64, k int) (*sim.Runner, sim.Config, time.Duration, error) {
	start := time.Now()
	set, err := dataset.ByName(w.dataset, derive(seed, 2*k))
	if err != nil {
		return nil, sim.Config{}, 0, err
	}
	cfg := w.config(set, derive(seed, 2*k+1))
	r, err := sim.NewRunner(cfg)
	return r, cfg, time.Since(start), err
}

// unitRun is one advanced unit.
type unitRun struct {
	res    *sim.Result
	wall   time.Duration // Advance windows plus the final Result
	window []float64     // per-Advance wall, ms
	prefix *sim.Result   // Result at verifyHours, when asked for
}

// advance runs r to its end in window-sized Advance calls. When
// prefixHours > 0 the Result at that point is also taken (outside the
// timed region).
func (w simWorkload) advance(o *outcome, r *sim.Runner, prefixHours float64) (*unitRun, error) {
	u := &unitRun{}
	for i := 1; !r.Done(); i++ {
		t0 := time.Now()
		err := r.Advance(float64(i) * windowHours * 3600)
		d := time.Since(t0)
		o.op(err)
		if err != nil {
			return nil, err
		}
		u.wall += d
		u.window = append(u.window, ms(d))
		if u.prefix == nil && prefixHours > 0 && r.Now() >= prefixHours*3600-1e-6 {
			p, err := r.Result()
			if err != nil {
				return nil, err
			}
			u.prefix = p
		}
	}
	t0 := time.Now()
	res, err := r.Result()
	u.wall += time.Since(t0)
	if err != nil {
		return nil, err
	}
	u.res = res
	return u, nil
}

func runSim(c runConfig, w simWorkload) (*outcome, error) {
	if c.tiny {
		w.hours, w.verifyHours = 1, 0.5
	}
	if c.trace {
		return traceSim(c, w)
	}
	o := newOutcome()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, _, d, err := w.newUnit(c.seed, 0)
		if err != nil {
			return nil, err
		}
		r.Close()
		setups = append(setups, d.Seconds())
	}

	var (
		windows, cov []float64
		wall         time.Duration
		units        int
		first        *unitRun
		firstC       sim.Config
	)
	start := time.Now()
	for units == 0 || time.Since(start).Seconds() < c.seconds {
		r, cfg, d, err := w.newUnit(c.seed, units)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		prefix := 0.0
		if units == 0 {
			prefix = w.verifyHours
		}
		u, err := w.advance(o, r, prefix)
		r.Close()
		if err != nil {
			return nil, err
		}
		checkSimResult(o, u.res, w)
		if units == 0 {
			first, firstC = u, cfg
		}
		o.check(u.res.Frames == first.res.Frames, "unit %d simulated %d frames, unit 0 %d", units, u.res.Frames, first.res.Frames)
		windows = append(windows, u.window...)
		cov = append(cov, u.res.CoveragePct())
		wall += u.wall
		units++
	}
	verifyPrefix(o, w, firstC, first.prefix)

	o.e2e("setup_s", median(setups))
	o.e2e("peak_rss_mb", peakRSSMB())
	o.e2e("work_per_s", float64(units)*w.hours/wall.Seconds())
	o.e2e("op_p50_ms", pct(windows, 50))
	o.e2e("op_p90_ms", pct(windows, 90))
	o.e2e("coverage_pct", sum(cov)/float64(len(cov)))
	simCounters(o, first.res)
	return o, nil
}

// checkSimResult checks one unit's Result for internal consistency.
func checkSimResult(o *outcome, r *sim.Result, w simWorkload) {
	cov := r.CoveragePct()
	o.check(r.Frames > 0 && r.FramesWithTargets > 0 && r.FramesWithTargets <= r.Frames,
		"frames %d with targets %d", r.Frames, r.FramesWithTargets)
	o.check(r.Captures > 0 && r.SchedSolves == r.FramesWithTargets,
		"captures %d, solves %d for %d frames with targets", r.Captures, r.SchedSolves, r.FramesWithTargets)
	o.check(cov > 0 && cov <= 100 && r.HighResCaptured <= r.TotalTargets && r.LowResSeen <= r.TotalTargets,
		"coverage %.3f%% (%d captured, %d seen of %d)", cov, r.HighResCaptured, r.LowResSeen, r.TotalTargets)
	o.check(r.App == w.dataset, "result for dataset %q, want %q", r.App, w.dataset)
}

// verifyPrefix re-runs the first unit's opening hours with every schedule
// validated against constraints C1-C3 and requires the same deterministic
// Result as the measured run had at that point.
func verifyPrefix(o *outcome, w simWorkload, cfg sim.Config, got *sim.Result) {
	cfg.ValidateSchedules = true
	cfg.DurationS = w.verifyHours * 3600
	want, err := sim.Run(cfg)
	o.op(err)
	if err != nil {
		return
	}
	if got == nil {
		o.check(false, "no Result at %.2f h", w.verifyHours)
		return
	}
	if maxSched(want, got) >= 0.9*schedLimitS {
		return // a solve may have hit its wall-clock limit; the runs may differ
	}
	diff := diffSimResults(want, got)
	o.check(diff == "", "validated re-run of the first %.2f h differs: %s", w.verifyHours, diff)
}

func maxSched(a, b *sim.Result) float64 {
	return math.Max(a.SchedWallMax.Seconds(), b.SchedWallMax.Seconds())
}

// diffSimResults names the deterministic Result fields that differ.
func diffSimResults(a, b *sim.Result) string {
	type field struct {
		name string
		x, y float64
	}
	fields := []field{
		{"TotalTargets", float64(a.TotalTargets), float64(b.TotalTargets)},
		{"HighResCaptured", float64(a.HighResCaptured), float64(b.HighResCaptured)},
		{"LowResSeen", float64(a.LowResSeen), float64(b.LowResSeen)},
		{"Frames", float64(a.Frames), float64(b.Frames)},
		{"FramesWithTargets", float64(a.FramesWithTargets), float64(b.FramesWithTargets)},
		{"Detections", float64(a.Detections), float64(b.Detections)},
		{"Clusters", float64(a.Clusters), float64(b.Clusters)},
		{"Captures", float64(a.Captures), float64(b.Captures)},
		{"SchedSolves", float64(a.SchedSolves), float64(b.SchedSolves)},
		{"SchedNodes", float64(a.SchedNodes), float64(b.SchedNodes)},
		{"SchedIters", float64(a.SchedIters), float64(b.SchedIters)},
		{"ClusterNodes", float64(a.ClusterNodes), float64(b.ClusterNodes)},
		{"ClusterIters", float64(a.ClusterIters), float64(b.ClusterIters)},
		{"CrosslinkBytes", a.CrosslinkBytes, b.CrosslinkBytes},
	}
	var buf bytes.Buffer
	for _, f := range fields {
		if f.x != f.y {
			fmt.Fprintf(&buf, "%s %v vs %v; ", f.name, f.x, f.y)
		}
	}
	return buf.String()
}

// simCounters records the first unit's deterministic counts.
func simCounters(o *outcome, r *sim.Result) {
	o.counters["frames"] = int64(r.Frames)
	o.counters["frames_with_targets"] = int64(r.FramesWithTargets)
	o.counters["detections"] = int64(r.Detections)
	o.counters["captures"] = int64(r.Captures)
	o.counters["high_res_captured"] = int64(r.HighResCaptured)
	o.counters["sched_nodes"] = int64(r.SchedNodes)
	o.counters["sched_iters"] = int64(r.SchedIters)
	o.counters["cluster_nodes"] = int64(r.ClusterNodes)
	o.counters["cluster_iters"] = int64(r.ClusterIters)
}

// traceSim runs the first unit four times -- plain, with sim.Config.Metrics
// and sim.Config.Trace attached, with sim.Config.Flight attached, and plain
// again -- and replays the run's index bucket builds through
// dataset.NewIndex. The plain runs bracket the instrumented ones so the
// overhead ratios compare like with like.
func traceSim(c runConfig, w simWorkload) (*outcome, error) {
	o := newLayerOutcome()
	r, cfg, _, err := w.newUnit(c.seed, 0)
	if err != nil {
		return nil, err
	}
	r.Close()
	runOnce := func(cfg sim.Config) (*unitRun, error) {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return w.advance(o, r, 0)
	}

	plain1, err := runOnce(cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tcfg := cfg
	tcfg.Metrics = reg
	tcfg.Trace = &traceBuf
	traced, err := runOnce(tcfg)
	if err != nil {
		return nil, err
	}
	fcfg := cfg
	fcfg.Flight = obs.NewFlightRecorder(obs.FlightConfig{})
	flight, err := runOnce(fcfg)
	if err != nil {
		return nil, err
	}
	plain2, err := runOnce(cfg)
	if err != nil {
		return nil, err
	}
	plain := (plain1.wall + plain2.wall).Seconds() / 2

	rd := readRegistry(reg)
	o.apply(rd)
	o.reconcile(workloadName(w), ms(traced.wall))
	o.layer("obs.trace_overhead_pct", 100*(traced.wall.Seconds()/plain-1))
	o.layer("obs.flight_overhead_pct", 100*(flight.wall.Seconds()/plain-1))

	// Per-frame scheduling time (Fig. 12a) from the frame trace.
	var frameMS []float64
	dec := json.NewDecoder(&traceBuf)
	for dec.More() {
		var rec sim.TraceRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("frame trace: %w", err)
		}
		frameMS = append(frameMS, rec.SchedMS)
	}
	o.check(len(frameMS) == traced.res.SchedSolves, "trace has %d frame records for %d solves", len(frameMS), traced.res.SchedSolves)
	o.layer("sched.frame_p50_ms", pct(frameMS, 50))
	o.layer("sched.frame_max_ms", pct(frameMS, 100))

	// Traced and plain runs must agree on every deterministic field. The
	// one tolerated difference: a solve stopped by a limit (the registry's
	// truncated counters), which a wall-clock limit makes timing-dependent.
	truncated := rd["sched.truncated"]+rd["cluster.truncated"] > 0 || maxSched(plain1.res, traced.res) >= 0.9*schedLimitS
	for _, u := range []*unitRun{traced, flight, plain2} {
		diff := diffSimResults(plain1.res, u.res)
		if diff != "" && truncated {
			fmt.Fprintln(os.Stderr, "perfbench: tolerated difference after truncated solves:", diff)
			continue
		}
		o.check(diff == "", "instrumented run differs from the plain run: %s", diff)
	}
	checkSimResult(o, traced.res, w)
	o.check(int(rd["sim.frames"]) == traced.res.Frames && int(rd["sim.captures"]) == traced.res.Captures,
		"registry counted %v frames and %v captures, Result %d and %d", rd["sim.frames"], rd["sim.captures"], traced.res.Frames, traced.res.Captures)

	builds, buildMS := replayIndexBuilds(cfg)
	o.layer("dataset.index_builds", float64(builds))
	o.layer("dataset.index_build_ms", buildMS)
	simCounters(o, traced.res)
	o.counters["index_builds"] = int64(builds)
	return o, nil
}

// replayIndexBuilds rebuilds, through dataset.NewIndex, the index buckets
// the run's frame times span: one for a static set, one per 600 s bucket
// for moving targets (the simulator's TimedIndex parameters).
func replayIndexBuilds(cfg sim.Config) (int, float64) {
	buckets := 1
	if cfg.App.Moving {
		buckets = int(math.Ceil(cfg.DurationS / 600))
	}
	start := time.Now()
	for b := 0; b < buckets; b++ {
		dataset.NewIndex(cfg.App, 2, float64(b)*600)
	}
	return buckets, ms(time.Since(start))
}

func workloadName(w simWorkload) string { return "sim-" + w.dataset }
