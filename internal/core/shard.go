// Spatial sharding of the frame pipeline. At 10^5..10^6 targets per
// frame a single detect -> cluster -> sched solve dominates wall time; a
// ShardedPipeline tiles the frame footprint into along-track x
// cross-track cells, runs one full per-shard pipeline per cell, and
// merges results in fixed shard order -- the Workers 4==1 discipline
// (private accumulators, ordered merge) applied inside a frame. All
// shards share one frame-local tangent frame and see the same follower
// states, so per-shard captures already satisfy the off-nadir (C2) and
// aim==target (C3) constraints of the merged schedule; only slew
// transitions between captures from different shards (C1) are re-checked
// at stitch time, by greedy admission in time order.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"eagleeye/internal/cluster"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/sched"
)

// ShardPlan is the fixed spatial decomposition of one frame: an NX
// (cross-track) x NY (along-track) grid of equal cells over the frame
// bounds. The plan is a pure function of the frame bounds, the follower
// swath and the target count, so every worker -- and every worker count
// -- derives the identical grid.
type ShardPlan struct {
	Bounds geo.Rect
	NX, NY int
	CellW  float64
	CellH  float64
}

// Shards returns the cell count.
func (pl ShardPlan) Shards() int { return pl.NX * pl.NY }

// Owner returns the owning shard of a frame-local point: the row-major
// index of the cell whose half-open [min, min+cell) range contains it,
// clamped to the grid so boundary points (a target exactly on the frame's
// max edge, detection jitter marginally outside) are owned by the
// adjacent cell. The floor rule makes ownership unique and deterministic:
// a target in the halo band -- within one swath of a cell boundary, where
// a footprint could also be placed from the neighboring shard -- is still
// clustered and scheduled by exactly one shard, so covers stay feasible
// and no target is double-counted.
func (pl ShardPlan) Owner(p geo.Point2) int {
	cx := int(math.Floor((p.X - pl.Bounds.Min.X) / pl.CellW))
	if cx < 0 {
		cx = 0
	} else if cx >= pl.NX {
		cx = pl.NX - 1
	}
	cy := int(math.Floor((p.Y - pl.Bounds.Min.Y) / pl.CellH))
	if cy < 0 {
		cy = 0
	} else if cy >= pl.NY {
		cy = pl.NY - 1
	}
	return cy*pl.NX + cx
}

// Cell returns shard k's footprint rectangle.
func (pl ShardPlan) Cell(k int) geo.Rect {
	cx, cy := k%pl.NX, k/pl.NX
	min := geo.Point2{X: pl.Bounds.Min.X + float64(cx)*pl.CellW, Y: pl.Bounds.Min.Y + float64(cy)*pl.CellH}
	return geo.Rect{Min: min, Max: geo.Point2{X: min.X + pl.CellW, Y: min.Y + pl.CellH}}
}

// PlanShards tiles bounds into enough cells that each holds about
// perShard of the frame's targets, subject to a geometric floor: no cell
// edge shrinks below twice the follower swath, so a footprint candidate
// (edge <= swath) placed on a shard's own targets can reach at most the
// adjacent halo band, never span a whole cell. maxShards, when positive,
// additionally caps the cell count. Below the density crossover
// (targets <= perShard) the plan is the identity 1x1 grid.
func PlanShards(bounds geo.Rect, swathM float64, targets, perShard, maxShards int) ShardPlan {
	pl := ShardPlan{Bounds: bounds, NX: 1, NY: 1, CellW: bounds.Width(), CellH: bounds.Height()}
	if perShard <= 0 || targets <= perShard {
		return pl
	}
	minEdge := 2 * swathM
	if minEdge <= 0 {
		minEdge = 1
	}
	desired := (targets + perShard - 1) / perShard
	if maxShards > 0 && desired > maxShards {
		desired = maxShards
	}
	w, h := bounds.Width(), bounds.Height()
	for pl.NX*pl.NY < desired {
		growX := w/float64(pl.NX+1) >= minEdge
		growY := h/float64(pl.NY+1) >= minEdge
		if !growX && !growY {
			break
		}
		// Split the dimension with the larger current cell edge, keeping
		// cells near-square (ties go cross-track).
		if growX && (!growY || w/float64(pl.NX) >= h/float64(pl.NY)) {
			pl.NX++
		} else {
			pl.NY++
		}
	}
	pl.CellW = w / float64(pl.NX)
	pl.CellH = h / float64(pl.NY)
	return pl
}

// ShardFrameStats reports one sharded frame's decomposition.
type ShardFrameStats struct {
	Shards int
	// MaxTargets and MeanTargets describe the per-shard target load; their
	// ratio is the imbalance the shard metrics export.
	MaxTargets  int
	MeanTargets float64
	// ClusterFallbacks and SchedFallbacks count shards whose cover or
	// schedule came from a fallback path.
	ClusterFallbacks int
	SchedFallbacks   int
	// DroppedCaptures counts per-shard captures rejected by the stitch's
	// cross-shard slew-feasibility (C1) re-check.
	DroppedCaptures int
}

// Imbalance returns max/mean per-shard target load (1 = perfectly even,
// 0 = empty frame).
func (s ShardFrameStats) Imbalance() float64 {
	if s.MeanTargets <= 0 {
		return 0
	}
	return float64(s.MaxTargets) / s.MeanTargets
}

// shardUnit is one shard's private pipeline: its own scratch, RNG, warm
// cluster state and scheduler, so shards never share mutable state and
// the intra-frame parallel section stays race-free. Unit k always
// processes shard k, whichever worker runs it.
type shardUnit struct {
	pipe         Pipeline
	clusterState *cluster.SolverState
	src          rand.Source
	truth        []geo.Point2
	truthIdx     []int32 // shard-local detection truth index -> frame truth index
	res          Result
	err          error
}

// ShardedPipeline runs the leader pipeline sharded over a frame's
// footprint. Configure the exported fields before the first ProcessFrame
// call and do not change them afterwards; the struct itself is
// single-goroutine (parallelism happens only inside ProcessFrame, through
// the Parallel hook).
type ShardedPipeline struct {
	// Template is copied into each shard unit once, when the unit is
	// built. Its Scheduler, Rng and ClusterOpts.State fields are ignored:
	// each unit gets its own from NewScheduler / NewClusterState / the
	// per-frame seed. Every unit shares Template.PriorityScale, so with a
	// Parallel hook set it must be safe for concurrent calls.
	Template Pipeline
	// NewScheduler builds one shard's scheduler. Required: schedulers
	// carry warm-start state and must not be shared across shards.
	NewScheduler func() sched.Scheduler
	// FreeScheduler, when non-nil, releases a unit scheduler on Close.
	FreeScheduler func(sched.Scheduler)
	// NewClusterState, when non-nil, builds one shard's persistent cover
	// solver state (warm LP basis across frames of the same shard index).
	NewClusterState  func() *cluster.SolverState
	FreeClusterState func(*cluster.SolverState)
	// PerShardTargets is the density crossover: frames with at most this
	// many targets stay on a single shard. 0 means 4096.
	PerShardTargets int
	// MaxShards, when positive, caps the grid size regardless of density.
	MaxShards int
	// Parallel runs fn(0..n-1), each exactly once, concurrently if it
	// wishes; nil runs them sequentially. The merge never depends on
	// completion order.
	Parallel func(n int, fn func(int))

	units   []*shardUnit
	owner   []int32
	visited []bool
	wire    []byte
}

func (sp *ShardedPipeline) perShard() int {
	if sp.PerShardTargets > 0 {
		return sp.PerShardTargets
	}
	return 4096
}

// shardSeed derives shard k's detector seed from the frame seed
// (splitmix-style, matching the simulator's frameSeed construction).
func shardSeed(frameSeed int64, k int) int64 {
	h := uint64(frameSeed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// ensureUnits grows the persistent unit list to n shards.
func (sp *ShardedPipeline) ensureUnits(n int) {
	for len(sp.units) < n {
		u := &shardUnit{pipe: sp.Template, src: rand.NewSource(1)}
		u.pipe.Scheduler = sp.NewScheduler()
		u.pipe.Rng = rand.New(u.src)
		u.pipe.ClusterOpts.State = nil
		if sp.NewClusterState != nil {
			u.clusterState = sp.NewClusterState()
			u.pipe.ClusterOpts.State = u.clusterState
		}
		sp.units = append(sp.units, u)
	}
}

// Close releases per-unit solver state through the Free hooks. The
// pipeline is unusable afterwards.
func (sp *ShardedPipeline) Close() {
	for _, u := range sp.units {
		if sp.FreeScheduler != nil && u.pipe.Scheduler != nil {
			sp.FreeScheduler(u.pipe.Scheduler)
		}
		if sp.FreeClusterState != nil && u.clusterState != nil {
			sp.FreeClusterState(u.clusterState)
		}
	}
	sp.units = nil
}

// ProcessFrame plans the frame's shard grid and runs the leader pipeline
// over it. A 1x1 plan is the plain leader pipeline: shard unit 0 runs the
// frame as given (its bounds, its truth, seed as the detector seed) and
// its Result is returned unchanged. Larger plans partition the truth by
// owner, run every shard's pipeline on its cell with a seed derived from
// seed (in parallel when a Parallel hook is set), and merge in shard
// order. For a fixed configuration the result is a pure function of
// (frame, followers, env, seed), independent of the Parallel hook's
// concurrency.
func (sp *ShardedPipeline) ProcessFrame(f Frame, followers []sched.Follower, env sched.Env, seed int64) (Result, ShardFrameStats, error) {
	if sp.NewScheduler == nil {
		return Result{}, ShardFrameStats{}, fmt.Errorf("core: sharded pipeline needs a NewScheduler hook")
	}
	if len(followers) == 0 {
		return Result{}, ShardFrameStats{}, fmt.Errorf("core: no followers to schedule")
	}
	swath := sp.Template.HighResSwathM
	if swath <= 0 {
		swath = 10e3
	}
	pl := PlanShards(f.Bounds, swath, len(f.Truth), sp.perShard(), sp.MaxShards)
	n := pl.Shards()
	sp.ensureUnits(n)
	stats := ShardFrameStats{Shards: n, MeanTargets: float64(len(f.Truth)) / float64(n)}
	if n == 1 {
		u := sp.units[0]
		u.src.Seed(seed)
		res, err := u.pipe.ProcessFrame(f, followers, env)
		if err != nil {
			return Result{}, stats, err
		}
		stats.MaxTargets = len(f.Truth)
		if res.ClusterStats.Fallback {
			stats.ClusterFallbacks = 1
		}
		if res.Schedule.SolveStats.Fallback {
			stats.SchedFallbacks = 1
		}
		return res, stats, nil
	}

	// Partition truth in input order: per-shard slices plus the local ->
	// frame index map that keeps Detection.TruthIndex meaningful after the
	// merge.
	if cap(sp.owner) < len(f.Truth) {
		sp.owner = make([]int32, len(f.Truth))
	}
	owner := sp.owner[:len(f.Truth)]
	for k := 0; k < n; k++ {
		u := sp.units[k]
		u.truth = u.truth[:0]
		u.truthIdx = u.truthIdx[:0]
		u.res = Result{}
		u.err = nil
	}
	for i, p := range f.Truth {
		owner[i] = int32(pl.Owner(p))
	}
	for i := range f.Truth {
		u := sp.units[owner[i]]
		u.truth = append(u.truth, f.Truth[i])
		u.truthIdx = append(u.truthIdx, int32(i))
	}
	for k := 0; k < n; k++ {
		if l := len(sp.units[k].truth); l > stats.MaxTargets {
			stats.MaxTargets = l
		}
	}

	// Solve every shard on its private unit. Shard k images the cell
	// rectangle: detector false positives spread over the cell, not the
	// whole frame, so expected frame-level FP counts match the unsharded
	// pipeline.
	run := func(k int) {
		u := sp.units[k]
		u.src.Seed(shardSeed(seed, k))
		sub := Frame{Truth: u.truth, Bounds: pl.Cell(k), GSDM: f.GSDM}
		u.res, u.err = u.pipe.ProcessFrame(sub, followers, env)
	}
	if sp.Parallel != nil {
		sp.Parallel(n, run)
	} else {
		for k := 0; k < n; k++ {
			run(k)
		}
	}
	for k := 0; k < n; k++ {
		if err := sp.units[k].err; err != nil {
			return Result{}, stats, fmt.Errorf("core: shard %d: %w", k, err)
		}
	}

	// Ordered merge: concatenate detections and clusters in shard order,
	// remapping member/truth indices and target IDs into the merged
	// numbering (global target ID = merged cluster index, or merged
	// detection index without clustering -- exactly the reconstruction the
	// simulator's schedule validation performs).
	var res Result
	res.ComputeS = sp.Template.Tiling.FrameTimeS(sp.Template.Detector)
	nDet, nTgt := 0, 0
	for k := 0; k < n; k++ {
		r := &sp.units[k].res
		nDet += len(r.Detections)
		if sp.Template.UseClustering {
			nTgt += len(r.Clusters)
		} else {
			nTgt += len(r.Detections)
		}
	}
	res.Detections = make([]detect.Detection, 0, nDet)
	if sp.Template.UseClustering {
		res.Clusters = make([]cluster.Cluster, 0, nTgt)
	}
	vals := make([]float64, nTgt) // merged target ID -> value
	var caps []sched.Capture      // all shards' captures, merged IDs
	for k := 0; k < n; k++ {
		u := sp.units[k]
		r := &u.res
		detBase := len(res.Detections)
		tgtBase := len(res.Clusters)
		if !sp.Template.UseClustering {
			tgtBase = detBase
		}
		for _, d := range r.Detections {
			if d.TruthIndex >= 0 {
				d.TruthIndex = int(u.truthIdx[d.TruthIndex])
			}
			res.Detections = append(res.Detections, d)
			if !sp.Template.UseClustering {
				vals[len(res.Detections)-1] = d.Confidence
			}
		}
		if sp.Template.UseClustering {
			for ci, c := range r.Clusters {
				members := make([]int, len(c.Members))
				val := 0.0
				for mi, m := range c.Members {
					members[mi] = detBase + m
					val += r.Detections[m].Confidence
				}
				c.Members = members
				res.Clusters = append(res.Clusters, c)
				vals[tgtBase+ci] = val
			}
		}
		for fi, seq := range r.Schedule.Captures {
			for _, c := range seq {
				c.TargetID += tgtBase
				c.Follower = fi
				caps = append(caps, c)
			}
		}
		if r.ClusterMethod > res.ClusterMethod {
			res.ClusterMethod = r.ClusterMethod // most-degraded method wins
		}
		mergeClusterStats(&res.ClusterStats, r.ClusterStats)
		if r.ClusterStats.Fallback {
			stats.ClusterFallbacks++
		}
		if r.Schedule.SolveStats.Fallback {
			stats.SchedFallbacks++
		}
		mergeSchedStats(&res.Schedule.SolveStats, &r.Schedule.SolveStats, k == 0)
		res.DetectWall += r.DetectWall
		res.ClusterWall += r.ClusterWall
		if r.SchedWall > res.SchedWall {
			// Shards solve concurrently: the frame's scheduling latency is
			// the slowest shard, not the sum (wall fields are timing-only
			// and excluded from determinism comparisons).
			res.SchedWall = r.SchedWall
		}
	}

	// Stitch: captures sorted by (follower, time, shard order preserved by
	// stable sort), then greedily admitted under the cross-shard slew
	// constraint. C2/C3 already hold per shard -- all shards share the
	// frame's tangent coordinates and follower states.
	sort.SliceStable(caps, func(i, j int) bool {
		if caps[i].Follower != caps[j].Follower {
			return caps[i].Follower < caps[j].Follower
		}
		return caps[i].Time < caps[j].Time
	})
	prob := sched.Problem{Env: env, Followers: followers}
	res.Schedule.Captures = make([][]sched.Capture, len(followers))
	if cap(sp.visited) < nTgt {
		sp.visited = make([]bool, nTgt)
	}
	visited := sp.visited[:nTgt]
	for i := range visited {
		visited[i] = false
	}
	for i := 0; i < len(caps); {
		fi := caps[i].Follower
		j := i
		for j < len(caps) && caps[j].Follower == fi {
			j++
		}
		fol := followers[fi]
		prevAim, prevT := fol.Boresight, 0.0
		seq := res.Schedule.Captures[fi]
		for _, c := range caps[i:j] {
			if visited[c.TargetID] {
				stats.DroppedCaptures++
				continue
			}
			if c.Time < prevT || !prob.TransitionFeasible(fol, prevAim, prevT, c.Aim, c.Time) {
				stats.DroppedCaptures++
				continue
			}
			seq = append(seq, c)
			visited[c.TargetID] = true
			res.Schedule.Value += vals[c.TargetID]
			prevAim, prevT = c.Aim, c.Time
		}
		res.Schedule.Captures[fi] = seq
		i = j
	}

	// Re-account crosslink traffic on the stitched schedule.
	var bytes float64
	sp.wire, bytes = scheduleWireBytes(sp.wire, res.Schedule.Captures)
	res.CrosslinkBytes = bytes
	return res, stats, nil
}

// mergeClusterStats accumulates one shard's cover solver cost.
func mergeClusterStats(dst *cluster.SolveStats, s cluster.SolveStats) {
	dst.Nodes += s.Nodes
	dst.Iters += s.Iters
	dst.PivotWall += s.PivotWall
	if s.Gap > dst.Gap {
		dst.Gap = s.Gap
	}
	dst.WarmAttempted = dst.WarmAttempted || s.WarmAttempted
	dst.WarmAccepted = dst.WarmAccepted || s.WarmAccepted
	dst.Refactorizations += s.Refactorizations
	dst.RepairFails += s.RepairFails
	dst.Fallback = dst.Fallback || s.Fallback
}

// mergeSchedStats accumulates one shard's scheduling solver cost.
func mergeSchedStats(dst *sched.Stats, s *sched.Stats, first bool) {
	if first {
		dst.Algorithm = s.Algorithm
		dst.Optimal = s.Optimal
	} else {
		dst.Optimal = dst.Optimal && s.Optimal
	}
	dst.Nodes += s.Nodes
	dst.Iters += s.Iters
	dst.PivotWall += s.PivotWall
	if s.Gap > dst.Gap {
		dst.Gap = s.Gap
	}
	dst.Fallback = dst.Fallback || s.Fallback
	dst.WarmAttempted = dst.WarmAttempted || s.WarmAttempted
	dst.Warm = dst.Warm || s.Warm
	dst.WarmPruned += s.WarmPruned
	dst.BasisReuses += s.BasisReuses
	dst.Refactorizations += s.Refactorizations
	dst.RepairFails += s.RepairFails
}
