package core

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"time"

	"eagleeye/internal/cluster"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/sched"
)

// denseTruth scatters n targets uniformly over a w x h frame.
func denseTruth(n int, w, h float64, seed int64) []geo.Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = pt((rng.Float64()-0.5)*w, (rng.Float64()-0.5)*h)
	}
	return pts
}

// slowSafe is a solver budget no test-scale solve ever exhausts, so
// wall-clock truncation cannot make results load-dependent (the identity
// test runs under -race, where everything is an order of magnitude
// slower).
var slowSafe = mip.Options{TimeLimit: time.Minute, MaxNodes: 100000}

func shardedPipeline(perShard int) *ShardedPipeline {
	tmpl := Pipeline{
		Detector:      detect.YoloN(),
		Tiling:        detect.PaperTiling(),
		UseClustering: true,
		// Dense shards must not enumerate cover candidates (quadratic):
		// force the grid fast path early.
		ClusterOpts:   cluster.Options{MaxCoverPoints: 256, MaxILPCandidates: 400, MIP: slowSafe},
		HighResSwathM: 10e3,
	}
	return &ShardedPipeline{
		Template:        tmpl,
		NewScheduler:    func() sched.Scheduler { return sched.ILP{State: sched.NewSolverState(), MIP: slowSafe} },
		NewClusterState: func() *cluster.SolverState { return cluster.NewSolverState() },
		PerShardTargets: perShard,
	}
}

// pool4 is a 4-worker intra-frame executor.
func pool4(n int, fn func(int)) {
	var wg sync.WaitGroup
	next := int32(-1)
	for w := 0; w < 4; w++ {
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

func TestPlanShardsIdentityBelowCrossover(t *testing.T) {
	b := geo.NewRectCentered(geo.Point2{}, 100e3, 100e3)
	pl := PlanShards(b, 10e3, 4000, 4096, 0)
	if pl.Shards() != 1 {
		t.Fatalf("below crossover: %d shards, want 1", pl.Shards())
	}
	if pl.CellW != b.Width() || pl.CellH != b.Height() {
		t.Error("identity plan must keep the frame cell")
	}
}

func TestPlanShardsGeometry(t *testing.T) {
	b := geo.NewRectCentered(geo.Point2{}, 100e3, 100e3)
	const swath = 10e3
	pl := PlanShards(b, swath, 100000, 1000, 0)
	if pl.Shards() < 2 {
		t.Fatalf("dense frame not sharded: %+v", pl)
	}
	if pl.CellW < 2*swath || pl.CellH < 2*swath {
		t.Errorf("cell %v x %v below the 2x swath floor", pl.CellW, pl.CellH)
	}
	// The 100 km frame holds at most 5x5 cells of >= 20 km.
	if pl.NX > 5 || pl.NY > 5 {
		t.Errorf("grid %dx%d exceeds the geometric cap", pl.NX, pl.NY)
	}
	if got := PlanShards(b, swath, 100000, 1000, 6); got.Shards() > 6 {
		t.Errorf("MaxShards ignored: %d shards", got.Shards())
	}

	// Ownership partitions the frame: every point owned by exactly one
	// in-range shard whose cell contains it (modulo the boundary clamp).
	pts := denseTruth(5000, b.Width(), b.Height(), 3)
	for _, p := range pts {
		k := pl.Owner(p)
		if k < 0 || k >= pl.Shards() {
			t.Fatalf("owner %d out of range for %v", k, p)
		}
		c := pl.Cell(k)
		const eps = 1e-6
		if p.X < c.Min.X-eps || p.X > c.Max.X+eps || p.Y < c.Min.Y-eps || p.Y > c.Max.Y+eps {
			t.Fatalf("point %v owned by non-containing cell %v", p, c)
		}
	}
}

func TestShardedFrameEndToEnd(t *testing.T) {
	sp := shardedPipeline(500)
	defer sp.Close()
	truth := denseTruth(5000, 100e3, 100e3, 7)
	f, _ := frameAhead(truth)
	fols := []sched.Follower{
		{SubPoint: pt(0, -100e3), Boresight: pt(0, -100e3)},
		{SubPoint: pt(0, -120e3), Boresight: pt(0, -120e3)},
	}
	res, stats, err := sp.ProcessFrame(f, fols, env(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards < 2 {
		t.Fatalf("dense frame ran unsharded: %+v", stats)
	}
	if stats.Imbalance() < 1 {
		t.Errorf("imbalance %v < 1", stats.Imbalance())
	}
	if len(res.Detections) == 0 || len(res.Clusters) == 0 || res.Schedule.NumCaptures() == 0 {
		t.Fatalf("pipeline idle: %d det, %d clusters, %d captures",
			len(res.Detections), len(res.Clusters), res.Schedule.NumCaptures())
	}

	// Merged clusters cover the merged detections exactly once.
	pts := make([]geo.Point2, len(res.Detections))
	for i, d := range res.Detections {
		pts[i] = d.Pos
	}
	if err := cluster.Validate(pts, res.Clusters); err != nil {
		t.Errorf("merged clusters invalid: %v", err)
	}

	// TruthIndex survived the merge remap: a true positive sits within
	// one GSD (the detector's jitter) of its frame-truth position.
	for _, d := range res.Detections {
		if d.TruthIndex < 0 {
			continue
		}
		if d.TruthIndex >= len(truth) {
			t.Fatalf("truth index %d out of range", d.TruthIndex)
		}
		if d.Pos.Dist(truth[d.TruthIndex]) > 2*f.GSDM {
			t.Fatalf("detection %v too far from its truth %v", d.Pos, truth[d.TruthIndex])
		}
	}

	// The stitched schedule is executable for the merged problem: global
	// target ID == merged cluster index, exactly the simulator's
	// reconstruction.
	targets := make([]sched.Target, len(res.Clusters))
	for i, c := range res.Clusters {
		val := 0.0
		for _, m := range c.Members {
			val += res.Detections[m].Confidence
		}
		targets[i] = sched.Target{ID: i, Pos: c.Center(), Value: val}
	}
	prob := &sched.Problem{Env: env(), Targets: targets, Followers: fols}
	if err := sched.ValidateSchedule(prob, &res.Schedule); err != nil {
		t.Errorf("stitched schedule invalid: %v", err)
	}
	if res.CrosslinkBytes <= 0 {
		t.Error("crosslink traffic not accounted")
	}
}

// normalizeShard strips the timing fields that vary with machine load.
func normalizeShard(r Result) Result {
	r.SchedWall = 0
	r.DetectWall = 0
	r.ClusterWall = 0
	r.ClusterStats.PivotWall = 0
	r.Schedule.SolveStats.PivotWall = 0
	return r
}

// TestShardedFrameWorkersIdentity is the intra-frame determinism
// guarantee: for a fixed shard grid, a 4-worker intra-frame executor
// produces byte-identical results to the sequential one, on a 20k-target
// frame, across consecutive frames (exercising per-shard warm state).
// CI runs this under -race (make bench-shard-smoke).
func TestShardedFrameWorkersIdentity(t *testing.T) {
	seqP := shardedPipeline(1000)
	defer seqP.Close()
	parP := shardedPipeline(1000)
	parP.Parallel = pool4
	defer parP.Close()

	fols := []sched.Follower{
		{SubPoint: pt(0, -100e3), Boresight: pt(0, -100e3)},
		{SubPoint: pt(0, -115e3), Boresight: pt(0, -115e3)},
		{SubPoint: pt(0, -130e3), Boresight: pt(0, -130e3)},
	}
	for frame := 0; frame < 3; frame++ {
		truth := denseTruth(20000, 100e3, 100e3, int64(11+frame))
		f, _ := frameAhead(truth)
		seed := int64(1000 + frame)
		a, sa, err := seqP.ProcessFrame(f, fols, env(), seed)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := parP.ProcessFrame(f, fols, env(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("frame %d: shard stats diverge: %+v vs %+v", frame, sa, sb)
		}
		if sa.Shards < 4 {
			t.Fatalf("frame %d: only %d shards; identity check needs real fan-out", frame, sa.Shards)
		}
		na, nb := normalizeShard(a), normalizeShard(b)
		if !reflect.DeepEqual(na, nb) {
			t.Fatalf("frame %d: sequential and 4-worker results diverge", frame)
		}
	}
}

// TestShardedSingleShardMatchesPlain pins the crossover contract: below
// the density threshold the sharded pipeline is the plain pipeline (one
// shard, full-frame bounds, the frame seed as the detector seed, no
// stitch), so the 1x1 plan is the paper's leader pipeline exactly.
func TestShardedSingleShardMatchesPlain(t *testing.T) {
	sp := shardedPipeline(1 << 20)
	defer sp.Close()
	truth := denseTruth(600, 100e3, 100e3, 21)
	f, fols := frameAhead(truth)
	const seed = 777
	got, stats, err := sp.ProcessFrame(f, fols, env(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 1 {
		t.Fatalf("sparse frame sharded: %+v", stats)
	}

	plain := Pipeline{
		Detector:      detect.YoloN(),
		Tiling:        detect.PaperTiling(),
		UseClustering: true,
		ClusterOpts:   cluster.Options{MaxCoverPoints: 256, MaxILPCandidates: 400, MIP: slowSafe, State: cluster.NewSolverState()},
		Scheduler:     sched.ILP{State: sched.NewSolverState(), MIP: slowSafe},
		HighResSwathM: 10e3,
		Rng:           rand.New(rand.NewSource(seed)),
	}
	want, err := plain.ProcessFrame(f, fols, env())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Error("detections diverge from the plain pipeline")
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Error("clusters diverge from the plain pipeline")
	}
	if !reflect.DeepEqual(got.Schedule.Captures, want.Schedule.Captures) {
		t.Error("captures diverge from the plain pipeline")
	}
	if got.Schedule.Value != want.Schedule.Value {
		t.Errorf("value %v != plain %v", got.Schedule.Value, want.Schedule.Value)
	}
	if got.CrosslinkBytes != want.CrosslinkBytes {
		t.Errorf("crosslink %v != plain %v", got.CrosslinkBytes, want.CrosslinkBytes)
	}
}
