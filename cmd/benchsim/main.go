// Command benchsim benchmarks the simulator's frame loop and writes a
// machine-readable measurement point, so performance history can be
// committed alongside the code (BENCH_sim.json) and CI can smoke-run the
// benchmark on every change. The workload mirrors the sim package's
// BenchmarkRunWorkers benchmarks: a 2000-target static set clustered
// around five sites, an 8-satellite leader-follower constellation, a
// 2-hour pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/cluster"
	"eagleeye/internal/constellation"
	"eagleeye/internal/core"
	"eagleeye/internal/dataset"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/obs"
	"eagleeye/internal/sched"
	"eagleeye/internal/sim"
)

// pointSchema versions the point layout for downstream consumers of the
// BENCH_sim.json series. Bump it whenever a field changes meaning.
// Schema 3 added the warm-start fields (warm flag, solver-load counters,
// warm-start hit rate and savings). Schema 4 added the LP engine fields
// (lp_core, nnz, refactorizations) when the sparse revised simplex
// landed. Schema 5 added the flight-recorder overhead fields
// (flight_ns_per_op, flight_overhead_pct). Schema 6 added the
// spatial-sharding fields (shards, shard_imbalance, lp_pricing, the
// frame-sweep baseline comparison) when the sharded frame pipeline
// landed.
const pointSchema = 6

// point is one benchmark measurement, shaped for appending to a BENCH_*.json
// time series (one JSON object per run).
type point struct {
	Schema      int     `json:"schema"`
	Name        string  `json:"name"`
	Date        string  `json:"date"`
	Commit      string  `json:"commit,omitempty"`
	GoVersion   string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Targets     int     `json:"targets"`
	Satellites  int     `json:"satellites"`
	DurationS   float64 `json:"duration_s"`
	Iters       int     `json:"iters"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// StageSeconds breaks one instrumented run's wall time down by
	// pipeline stage (detect, cluster, sched, execute, account,
	// ephemeris). The measured iterations above run uninstrumented so the
	// series stays comparable across commits; the breakdown comes from
	// one extra run with a live metrics registry.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`

	// Warm-start fields (schema 3), from the same instrumented run.
	// Warm reports whether the cross-frame warm-start pipeline was on.
	Warm bool `json:"warm"`
	// Solver load: B&B nodes and simplex iterations summed over all
	// scheduling / clustering solves -- the quantities the warm-start
	// pipeline reduces.
	SchedNodes   int `json:"sched_nodes"`
	SchedIters   int `json:"sched_iters"`
	ClusterNodes int `json:"cluster_nodes"`
	ClusterIters int `json:"cluster_iters"`
	// Warm-start accounting across both solvers: candidates offered and
	// verified, hit rate, nodes cut by the warm floor, and LP solves that
	// skipped phase 1 by reusing the previous basis.
	WarmAttempts    int64   `json:"warm_attempts,omitempty"`
	WarmAccepted    int64   `json:"warm_accepted,omitempty"`
	WarmHitRate     float64 `json:"warm_hit_rate,omitempty"`
	WarmPrunedNodes int64   `json:"warm_pruned_nodes,omitempty"`
	BasisReuses     int64   `json:"warm_basis_reuses,omitempty"`

	// LP engine fields (schema 4), from the same instrumented run.
	// LPCore reports which simplex engine the workload's LP solves used:
	// "dense", "sparse", or "mixed" (the CoreAuto crossover picks per
	// instance). NNZ is the largest structural nonzero count among solved
	// instances; Refactorizations counts sparse-core basis rebuilds
	// forced mid-solve.
	LPCore           string `json:"lp_core,omitempty"`
	NNZ              int64  `json:"nnz,omitempty"`
	Refactorizations int64  `json:"refactorizations,omitempty"`

	// Flight-recorder fields (schema 5): the same workload re-measured
	// with span tracing and a flight recorder attached, and the relative
	// overhead versus the uninstrumented NsPerOp. The acceptance budget
	// for the tracing layer is <=5%.
	FlightNsPerOp     int64   `json:"flight_ns_per_op,omitempty"`
	FlightOverheadPct float64 `json:"flight_overhead_pct"`

	// Spatial-sharding fields (schema 6). In frame-sweep points
	// (core/FrameShard) Shards is the measured frame's shard count and
	// BaselineNsPerOp/Speedup compare the sharded frame against the
	// unsharded single-shard run of the same pipeline; in sim points
	// Shards is the instrumented run's total per-shard solves. LPPricing
	// reports whether any sparse LP solve priced entering variables
	// through a partial window ("partial") or every solve swept the full
	// pricing index ("full").
	Shards               int64   `json:"shards,omitempty"`
	ShardImbalance       float64 `json:"shard_imbalance,omitempty"`
	LPPricing            string  `json:"lp_pricing,omitempty"`
	PartialPricingSolves int64   `json:"lp_partial_pricing_solves,omitempty"`
	BaselineNsPerOp      int64   `json:"baseline_ns_per_op,omitempty"`
	Speedup              float64 `json:"speedup,omitempty"`
}

// emit prints the point and appends it to the -out file when set.
func emit(p point, out string) {
	enc, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := fmt.Fprintln(f, string(enc)); err != nil {
			fmt.Fprintln(os.Stderr, "benchsim:", err)
			os.Exit(1)
		}
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "benchsim:", err)
	os.Exit(1)
}

// gitCommit stamps the point with `git rev-parse HEAD`, or "" outside a
// work tree (release tarballs, bare containers).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func benchWorld(n int, seed int64) *dataset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := &dataset.Set{Name: "benchsim"}
	centers := []geo.LatLon{
		{Lat: 0, Lon: 0}, {Lat: 20, Lon: 40}, {Lat: -30, Lon: 120},
		{Lat: 50, Lon: -80}, {Lat: -10, Lon: -60},
	}
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		s.Targets = append(s.Targets, dataset.Target{
			ID:    i,
			Pos:   geo.LatLon{Lat: c.Lat + rng.NormFloat64()*3, Lon: c.Lon + rng.NormFloat64()*3}.Normalize(),
			Value: 0.5 + 0.5*rng.Float64(),
		})
	}
	return s
}

// frameTruth scatters n targets uniformly over the 100 km frame, in
// frame-local meters.
func frameTruth(n int, seed int64) []geo.Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = geo.Point2{X: (rng.Float64() - 0.5) * 100e3, Y: (rng.Float64() - 0.5) * 100e3}
	}
	return pts
}

// frameShardPipeline builds the paper-parameter sharded frame pipeline:
// YOLO-class detector over the paper tiling, grid-capped set cover, warm
// per-shard solver state. Solver budgets are set high enough that no
// sweep-scale solve is truncated by wall clock, keeping points comparable
// across machines. perShard <= 0 takes the pipeline's default crossover.
func frameShardPipeline(perShard, workers int, reg *obs.Registry) *core.ShardedPipeline {
	copts := mip.Options{TimeLimit: time.Minute, MaxNodes: 100000}
	sopts := copts
	if reg != nil {
		copts.Metrics = obs.NewSolverMetrics(reg, "cluster")
		sopts.Metrics = obs.NewSolverMetrics(reg, "sched")
	}
	sp := &core.ShardedPipeline{
		Template: core.Pipeline{
			Detector:      detect.YoloN(),
			Tiling:        detect.PaperTiling(),
			UseClustering: true,
			ClusterOpts:   cluster.Options{MaxCoverPoints: 256, MaxILPCandidates: 400, MIP: copts},
			HighResSwathM: 10e3,
		},
		NewScheduler:    func() sched.Scheduler { return sched.ILP{State: sched.NewSolverState(), MIP: sopts} },
		NewClusterState: cluster.NewSolverState,
		PerShardTargets: perShard,
	}
	if workers > 1 {
		sp.Parallel = func(n int, fn func(int)) {
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
	}
	return sp
}

// partialSolves sums the partial-pricing counter across both solver
// stacks of one registry.
func partialSolves(reg *obs.Registry) int64 {
	n := int64(0)
	for _, solver := range []string{"sched", "cluster"} {
		n += reg.CounterValue("eagleeye_lp_partial_pricing_solves_total", obs.Label{Key: "solver", Value: solver})
	}
	return n
}

// baselineCap is the largest frame the unsharded baseline is re-measured
// at during a frame sweep. Above it only the sharded number is recorded
// (the point's baseline fields stay zero) -- the skip is logged, never
// silent.
const baselineCap = 200000

// frameSweepPoint benchmarks one dense targets-count frame through the
// sharded pipeline (core/FrameShard points): sharded at the configured
// crossover versus the same pipeline forced to a single shard, both over
// the identical frame, followers, and seeds.
func frameSweepPoint(targets, sats, workers, perShard, iters int, out string) {
	f := core.Frame{
		Truth:  frameTruth(targets, 60),
		Bounds: geo.NewRectCentered(geo.Point2{}, 100e3, 100e3),
		GSDM:   30,
	}
	fols := make([]sched.Follower, sats)
	for i := range fols {
		p := geo.Point2{Y: -100e3 - 15e3*float64(i)}
		fols[i] = sched.Follower{SubPoint: p, Boresight: p}
	}
	env := sched.Env{AltitudeM: 475e3, GroundSpeedMS: 7300, MaxOffNadirDeg: 11, Slew: adacs.PaperSlew()}
	if iters <= 0 {
		iters = 3
		if targets > baselineCap {
			iters = 1
		}
	}

	measure := func(perShard int, reg *obs.Registry) (int64, core.ShardFrameStats) {
		sp := frameShardPipeline(perShard, workers, reg)
		defer sp.Close()
		// One warm-up frame populates the grow-only arenas and solver pools.
		if _, _, err := sp.ProcessFrame(f, fols, env, 1); err != nil {
			die(err)
		}
		var stats core.ShardFrameStats
		start := time.Now()
		for i := 0; i < iters; i++ {
			var err error
			if _, stats, err = sp.ProcessFrame(f, fols, env, int64(2+i)); err != nil {
				die(err)
			}
		}
		return time.Since(start).Nanoseconds() / int64(iters), stats
	}

	reg := obs.NewRegistry()
	shardNs, stats := measure(perShard, reg)
	p := point{
		Schema:               pointSchema,
		Name:                 "core/FrameShard",
		Date:                 time.Now().UTC().Format(time.RFC3339),
		Commit:               gitCommit(),
		GoVersion:            runtime.Version(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Workers:              workers,
		Targets:              targets,
		Satellites:           sats,
		Iters:                iters,
		NsPerOp:              shardNs,
		Warm:                 true,
		Shards:               int64(stats.Shards),
		ShardImbalance:       stats.Imbalance(),
		PartialPricingSolves: partialSolves(reg),
	}
	if targets <= baselineCap {
		regBase := obs.NewRegistry()
		// 1<<30 targets per shard forces the single-shard identity plan:
		// the exact pre-sharding pipeline on the same frame.
		baseNs, _ := measure(1<<30, regBase)
		p.BaselineNsPerOp = baseNs
		if shardNs > 0 {
			p.Speedup = float64(baseNs) / float64(shardNs)
		}
		p.PartialPricingSolves += partialSolves(regBase)
	} else {
		fmt.Fprintf(os.Stderr, "benchsim: frame-sweep %d targets: unsharded baseline skipped (cap %d)\n",
			targets, baselineCap)
	}
	if p.PartialPricingSolves > 0 {
		p.LPPricing = "partial"
	} else {
		p.LPPricing = "full"
	}
	emit(p, out)
}

func main() {
	var (
		out          = flag.String("out", "", "append the JSON point to this file ('' means stdout only)")
		workers      = flag.Int("workers", 1, "simulation worker goroutines")
		iters        = flag.Int("iters", 0, "fixed iteration count (0 lets the benchmark framework decide)")
		targets      = flag.Int("targets", 2000, "workload size")
		sats         = flag.Int("sats", 8, "constellation size")
		hours        = flag.Float64("hours", 2, "simulated pass duration")
		warm         = flag.Bool("warm", true, "cross-frame warm-started solving; false records the cold A/B baseline")
		shardTargets = flag.Int("shard-targets", 0, "per-shard target crossover: 0 keeps sharding off in sim mode and auto in a frame sweep")
		frameSweep   = flag.String("frame-sweep", "", "comma-separated frame target counts; bench single dense frames through the sharded pipeline instead of full sim runs")
	)
	flag.Parse()

	if *frameSweep != "" {
		for _, field := range strings.Split(*frameSweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				die(fmt.Errorf("bad -frame-sweep entry %q", field))
			}
			frameSweepPoint(n, *sats, *workers, *shardTargets, *iters, *out)
		}
		return
	}

	cfg := sim.Config{
		Constellation:    constellation.Config{Kind: constellation.LeaderFollower, Satellites: *sats},
		App:              benchWorld(*targets, 60),
		DurationS:        *hours * 3600,
		Seed:             1,
		Workers:          *workers,
		DisableWarmStart: !*warm,
		ShardTargets:     *shardTargets,
	}
	// Warm the grow-only arenas and pools so the point reflects steady state.
	if _, err := sim.Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}

	bench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	var res testing.BenchmarkResult
	if *iters > 0 {
		// Fixed-iteration mode (CI smoke): run the loop body directly under
		// a single timed pass.
		start := time.Now()
		var mem0, mem1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&mem0)
		for i := 0; i < *iters; i++ {
			if _, err := sim.Run(cfg); err != nil {
				fmt.Fprintln(os.Stderr, "benchsim:", err)
				os.Exit(1)
			}
		}
		runtime.ReadMemStats(&mem1)
		res = testing.BenchmarkResult{
			N:         *iters,
			T:         time.Since(start),
			MemAllocs: mem1.Mallocs - mem0.Mallocs,
			MemBytes:  mem1.TotalAlloc - mem0.TotalAlloc,
		}
	} else {
		res = testing.Benchmark(bench)
	}

	// Re-measure the identical workload with a flight recorder attached
	// to price the span-tracing layer, over exactly the iteration count
	// the baseline used -- pairing the passes keeps the overhead delta
	// out of the benchmark framework's adaptive warm-up noise. One
	// recorder across iterations matches the long-session steady state
	// (its ring retention keeps memory bounded).
	fcfg := cfg
	fcfg.Flight = obs.NewFlightRecorder(obs.FlightConfig{})
	fstart := time.Now()
	for i := 0; i < res.N; i++ {
		if _, err := sim.Run(fcfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchsim:", err)
			os.Exit(1)
		}
	}
	fres := testing.BenchmarkResult{N: res.N, T: time.Since(fstart)}

	// One instrumented run collects the per-stage wall-time breakdown; it
	// stays out of the measured loop so NsPerOp remains comparable with
	// points recorded before the observability layer existed.
	stageSeconds := make(map[string]float64)
	reg := obs.NewRegistry()
	warmCount := func(series string) int64 {
		n := int64(0)
		for _, solver := range []string{"sched", "cluster"} {
			n += reg.CounterValue("eagleeye_warmstart_"+series+"_total", obs.Label{Key: "solver", Value: solver})
		}
		return n
	}
	mcfg := cfg
	mcfg.Metrics = reg
	ires, err := sim.Run(mcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}
	for _, stage := range []string{"ephemeris", "detect", "cluster", "sched", "execute", "account"} {
		ns := reg.CounterValue("eagleeye_stage_nanoseconds_total", obs.Label{Key: "stage", Value: stage})
		stageSeconds[stage] = float64(ns) / 1e9
	}

	p := point{
		Schema:       pointSchema,
		Name:         "sim/RunWorkers",
		Date:         time.Now().UTC().Format(time.RFC3339),
		Commit:       gitCommit(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      *workers,
		Targets:      *targets,
		Satellites:   *sats,
		DurationS:    *hours * 3600,
		Iters:        res.N,
		NsPerOp:      res.NsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		AllocsPerOp:  res.AllocsPerOp(),
		StageSeconds: stageSeconds,

		Warm:            *warm,
		SchedNodes:      ires.SchedNodes,
		SchedIters:      ires.SchedIters,
		ClusterNodes:    ires.ClusterNodes,
		ClusterIters:    ires.ClusterIters,
		WarmAttempts:    warmCount("attempts"),
		WarmAccepted:    warmCount("accepted"),
		WarmPrunedNodes: warmCount("pruned_nodes"),
		BasisReuses:     warmCount("basis_reuses"),
	}
	if p.WarmAttempts > 0 {
		p.WarmHitRate = float64(p.WarmAccepted) / float64(p.WarmAttempts)
	}
	p.FlightNsPerOp = fres.NsPerOp()
	if p.NsPerOp > 0 {
		p.FlightOverheadPct = 100 * (float64(p.FlightNsPerOp) - float64(p.NsPerOp)) / float64(p.NsPerOp)
	}
	var denseSolves, sparseSolves int64
	for _, solver := range []string{"sched", "cluster"} {
		lbl := obs.Label{Key: "solver", Value: solver}
		denseSolves += reg.CounterValue("eagleeye_lp_core_solves_total", lbl, obs.Label{Key: "core", Value: "dense"})
		sparseSolves += reg.CounterValue("eagleeye_lp_core_solves_total", lbl, obs.Label{Key: "core", Value: "sparse"})
		p.Refactorizations += reg.CounterValue("eagleeye_lp_refactorizations_total", lbl)
		if nnz := int64(reg.GaugeValue("eagleeye_lp_instance_nnz_max", lbl)); nnz > p.NNZ {
			p.NNZ = nnz
		}
	}
	switch {
	case denseSolves > 0 && sparseSolves > 0:
		p.LPCore = "mixed"
	case sparseSolves > 0:
		p.LPCore = "sparse"
	case denseSolves > 0:
		p.LPCore = "dense"
	}
	if *shardTargets > 0 {
		p.Shards = reg.CounterValue("eagleeye_shard_solves_total")
		p.ShardImbalance = reg.GaugeValue("eagleeye_shard_imbalance_max")
	}
	p.PartialPricingSolves = partialSolves(reg)
	if p.PartialPricingSolves > 0 {
		p.LPPricing = "partial"
	} else if denseSolves+sparseSolves > 0 {
		p.LPPricing = "full"
	}
	emit(p, *out)
}
