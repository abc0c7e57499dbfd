package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"eagleeye/internal/lp"
	"eagleeye/internal/mip"
)

// ILP is EagleEye's actuation-aware scheduler (§4.3): the generalized
// traveling-salesman formulation solved as an integer linear program.
//
// The continuous-time problem is discretized into a time-expanded graph:
// each (follower, target) imaging window contributes a small number of
// candidate capture slots; an edge connects two slots of one follower when
// the Eq. 1 actuation constraint admits pointing from the first target to
// the second in the elapsed time. Binary edge variables then describe one
// pointing route per follower (a path from its virtual source), and a
// covered variable per target collects the value of distinct captures --
// exactly the paper's objective with its Hit-set union. The LP relaxation
// of this flow-like model is near-integral, which is what makes millisecond
// solves possible where the AB&B baseline needs seconds (§6.1).
//
// Two practical reductions keep frame-rate solves cheap and are ablated in
// the benchmarks: the slot count per window adapts to the target count, and
// very dense frames are pre-trimmed to the most valuable MaxTargets targets
// (one follower can physically capture only ~15-17 targets during a pass,
// so the trim does not bind the optimum in practice).
type ILP struct {
	// SlotsPerTarget fixes the discretization; 0 adapts to problem size.
	SlotsPerTarget int
	// MaxSuccessors caps outgoing edges per slot node; 0 adapts.
	MaxSuccessors int
	// MaxTargets pre-trims dense frames to the top-valued targets;
	// 0 means 30 (scaled by the follower count).
	MaxTargets int
	// MIP forwards solver limits.
	MIP mip.Options
	// DisablePolish skips the post-solve re-timing and insertion pass
	// (see polish.go); used by the ablation benchmarks.
	DisablePolish bool
	// State, when non-nil, carries solver state across frames of one
	// leader (see warm.go): a pinned arena whose LP basis survives
	// between solves, frame-delta model construction, and warm-start
	// candidates projected from the previous schedule. The holder must
	// call Schedule from a single goroutine, in frame order.
	State *SolverState
	// fallback is used if the MIP fails to produce any solution.
	fallback Greedy
}

// Name implements Scheduler.
func (ILP) Name() string { return "ilp" }

// slotNode is one candidate capture: follower fi images target (index ti in
// the trimmed slice) at time t.
type slotNode struct {
	fi, ti int
	t      float64
}

// ilpEdge connects a source (from == -1-fi) or slot node to a later slot
// node of the same follower.
type ilpEdge struct{ from, to int }

// ilpModel is the assembled time-expanded flow ILP, kept for extraction and
// for white-box tests.
type ilpModel struct {
	targets  []Target
	nodes    []slotNode
	edges    []ilpEdge
	srcEdges [][]int // per follower: edge indices out of its source
	outEdges [][]int // per node: edge indices out
	prob     *mip.Problem
	ne       int // edge-variable count; cover variables follow
}

// Schedule implements Scheduler. Multi-follower instances whose joint
// time-expanded model would be large are decomposed sequentially: follower
// i is scheduled over the targets followers 0..i-1 did not take. Followers
// trail one another along the track, so the decomposition mirrors their
// physical precedence; the joint model is kept for small instances where
// coordinated splits matter most.
func (s ILP) Schedule(p *Problem) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	if len(p.Followers) > 1 && s.estimateNodes(p) > 90 {
		return s.scheduleSequential(p)
	}
	return s.scheduleJoint(p)
}

// estimateNodes predicts the joint model's slot-node count.
func (s ILP) estimateNodes(p *Problem) int {
	k := s.SlotsPerTarget
	if k <= 0 {
		k = 3
	}
	n := 0
	for _, f := range p.Followers {
		for _, tgt := range p.Targets {
			if tgt.Value <= 0 {
				continue
			}
			if _, _, ok := p.Window(f, tgt); ok {
				n += k
			}
		}
	}
	return n
}

// scheduleSequential runs the single-follower ILP per follower in trail
// order, removing captured targets between solves.
func (s ILP) scheduleSequential(p *Problem) (Schedule, error) {
	ar := getILPArena()
	defer putILPArena(ar)
	out := Schedule{Captures: make([][]Capture, len(p.Followers))}
	taken := ar.takenSet()
	stats := Stats{Algorithm: "ilp", Optimal: true}
	// Sub-solves run cold: they share neither shape nor scene with the
	// cross-frame state, so threading it through would only churn the
	// snapshot. The warm pipeline applies to the joint path.
	sj := s
	sj.State = nil
	for fi, f := range p.Followers {
		rem := ar.rem[:0]
		for _, t := range p.Targets {
			if !taken[t.ID] {
				rem = append(rem, t)
			}
		}
		ar.rem = rem
		sub := &Problem{Env: p.Env, Targets: rem, Followers: []Follower{f}}
		subOut, err := sj.scheduleJoint(sub)
		if err != nil {
			return Schedule{}, err
		}
		for _, c := range subOut.Captures[0] {
			c.Follower = fi
			out.Captures[fi] = append(out.Captures[fi], c)
			taken[c.TargetID] = true
		}
		stats.Nodes += subOut.SolveStats.Nodes
		stats.Iters += subOut.SolveStats.Iters
		stats.Gap += subOut.SolveStats.Gap
		stats.PivotWall += subOut.SolveStats.PivotWall
		stats.Fallback = stats.Fallback || subOut.SolveStats.Fallback
		stats.WarmAttempted = stats.WarmAttempted || subOut.SolveStats.WarmAttempted
		stats.Refactorizations += subOut.SolveStats.Refactorizations
		stats.RepairFails += subOut.SolveStats.RepairFails
		// Sequential decomposition is itself a heuristic, so the joint
		// optimum is not certified even if each sub-solve is.
		stats.Optimal = false
	}
	if !s.DisablePolish {
		polish(ar, p, &out)
	}
	ar.ids = appendCapturedIDs(ar.ids[:0], &out)
	out.Value = sumValues(ar.ids, ar.byIDMap(p))
	out.SolveStats = stats
	return out, nil
}

// scheduleJoint builds and solves the full time-expanded model.
func (s ILP) scheduleJoint(p *Problem) (Schedule, error) {
	st := s.State
	var ar *ilpArena
	if st != nil {
		// Cross-frame state pins its own arena so the MIP and LP
		// workspaces (including the saved simplex basis) persist between
		// frames instead of being shuffled through the pool.
		ar = st.ar
	} else {
		ar = getILPArena()
		defer putILPArena(ar)
	}
	m := s.buildModel(ar, p)
	if len(m.nodes) == 0 {
		if st != nil {
			st.prevN = 0 // nothing to project onto the next frame
		}
		return Schedule{
			Captures:   make([][]Capture, len(p.Followers)),
			SolveStats: Stats{Algorithm: "ilp", Optimal: true},
		}, nil
	}
	opts := s.MIP
	if opts.TimeLimit == 0 {
		// The leader must finish scheduling well inside the frame cadence
		// (§3.2); bound each solve and fall back to the incumbent or to
		// greedy beyond it.
		opts.TimeLimit = 2 * time.Second
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 4000
	}
	if st != nil {
		opts.ReuseBasis = true
		if wx, ok := st.warmCandidate(&s, m, p); ok {
			opts.WarmStart = wx
		}
	}
	sol, err := ar.mip.SolveOpts(m.prob, opts)
	if err != nil {
		return Schedule{}, fmt.Errorf("sched: ilp solve: %w", err)
	}
	if sol.Status != mip.StatusOptimal && sol.Status != mip.StatusFeasible {
		// The empty schedule is always feasible, so this indicates solver
		// distress (limits with no incumbent); fall back to greedy.
		out, ferr := s.fallback.Schedule(p)
		if ferr != nil {
			return Schedule{}, ferr
		}
		out.SolveStats.Algorithm = "ilp(greedy-fallback)"
		out.SolveStats.Fallback = true
		if st != nil {
			st.remember(p, &out)
		}
		return out, nil
	}
	out := m.extract(ar, p, sol.X)
	if !s.DisablePolish {
		polish(ar, p, &out)
	}
	out.SolveStats = Stats{
		Algorithm:        "ilp",
		Nodes:            sol.Nodes,
		Optimal:          sol.Status == mip.StatusOptimal,
		Iters:            sol.Iters,
		Gap:              sol.Gap,
		PivotWall:        sol.PivotWall,
		WarmAttempted:    sol.WarmAttempted,
		Warm:             sol.WarmAccepted,
		WarmPruned:       sol.WarmPruned,
		BasisReuses:      sol.BasisReuses,
		Refactorizations: sol.Refactorizations,
		RepairFails:      sol.RepairFails,
	}
	if st != nil {
		st.remember(p, &out)
	}
	return out, nil
}

// edgeCost is the objective coefficient of one routing edge: a small
// constant penalty that discourages valueless motion, plus a much smaller
// earlier-slot preference that makes tie-optima generically unique.
// Without the time term, routes that capture the same targets through
// different discrete slots are exactly tied, and which one the
// branch-and-bound returns depends on the simplex pivot path -- so a
// warm-started solve (which starts phase 2 from a crashed or saved basis
// instead of the all-slack corner) could return a different, equally
// optimal schedule than a cold one. The weights are layered: one slot
// granule (a few hundred ms) moves the objective by ~3e-9, above the
// solver's 1e-9 comparison tolerances, while a single edge's slot
// preference across a 60 s window (6e-7) stays below the flat motion
// penalty, which in turn sits orders of magnitude below target values.
//
// The uniqueness is generic, not absolute: two route ORDERS over the same
// slots whose slot-time sums happen to agree within the solver tolerances
// remain an unresolvable tie, and warm and cold solves may then return
// different equal-objective schedules. Raising the weights far enough to
// separate such collisions would push the penalties into the range of
// real value differences, so the residual is accepted: the warm-start
// contract is equal objective and feasibility everywhere (see
// FuzzWarmStartDifferential), with byte-identical simulation results
// verified on the fixed benchmark workloads (TestWarmStartResultIdentity).
func edgeCost(slotT float64) float64 {
	const tie = 1e-6  // per-edge: discourage valueless motion
	const tieT = 1e-8 // per-second: prefer the earlier of tied slots
	return -tie - tieT*slotT
}

// buildModel assembles the time-expanded flow ILP for the problem inside
// the arena. The returned model (and the problem it points to) borrow the
// arena's storage and are valid only until the arena's next solve.
func (s ILP) buildModel(ar *ilpArena, p *Problem) *ilpModel {
	m := &ar.model
	*m = ilpModel{targets: s.trimTargets(ar, p)}
	if len(m.targets) == 0 {
		return m
	}
	k := s.SlotsPerTarget
	if k <= 0 {
		switch {
		case len(m.targets) <= 8:
			k = 4
		case len(m.targets) <= 30:
			k = 3
		default:
			k = 2
		}
	}
	nodes := ar.nodes[:0]
	for fi, f := range p.Followers {
		for ti, tgt := range m.targets {
			w0, w1, ok := p.Window(f, tgt)
			if !ok {
				continue
			}
			for q := 0; q < k; q++ {
				t := w0 + (w1-w0)*(float64(q)+0.5)/float64(k)
				nodes = append(nodes, slotNode{fi: fi, ti: ti, t: t})
			}
		}
	}
	ar.nodes, m.nodes = nodes, nodes
	if len(m.nodes) == 0 {
		return m
	}
	slices.SortFunc(m.nodes, func(a, b slotNode) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.ti != b.ti {
			return cmp.Compare(a.ti, b.ti)
		}
		return cmp.Compare(a.fi, b.fi)
	})

	maxSucc := s.MaxSuccessors
	if maxSucc <= 0 {
		if len(m.nodes) <= 60 {
			maxSucc = len(m.nodes)
		} else {
			maxSucc = 10
		}
	}

	edges := ar.edges[:0]
	for vi, v := range m.nodes {
		f := p.Followers[v.fi]
		if p.TransitionFeasible(f, f.Boresight, 0, m.targets[v.ti].Pos, v.t) {
			edges = append(edges, ilpEdge{from: -1 - v.fi, to: vi})
		}
	}
	nz := len(m.targets)
	ar.growSeen(nz)
	for ui, u := range m.nodes {
		// For each successor target, keep only the earliest feasible slot:
		// arriving sooner never forecloses later transitions (the polish
		// pass re-times to earliest anyway), and this keeps the edge count
		// linear in the node count. Fan-out is capped at maxSucc distinct
		// successor targets. The stamp array replaces a per-node map.
		gen := ar.nextGen()
		linked := 0
		for vi := ui + 1; vi < len(m.nodes) && linked < maxSucc; vi++ {
			v := m.nodes[vi]
			if v.fi != u.fi || v.ti == u.ti || v.t <= u.t || ar.seenTgt[v.ti] == gen {
				continue
			}
			f := p.Followers[u.fi]
			if p.TransitionFeasible(f, m.targets[u.ti].Pos, u.t, m.targets[v.ti].Pos, v.t) {
				edges = append(edges, ilpEdge{from: ui, to: vi})
				ar.seenTgt[v.ti] = gen
				linked++
			}
		}
	}
	ar.edges, m.edges = edges, edges
	m.ne = len(m.edges)
	nv := m.ne + nz
	prob := &ar.prob

	if st := s.State; st != nil && st.topologyMatches(m, len(p.Followers)) {
		// Frame-delta fast path: the time-expanded graph is structurally
		// identical to the previous build in this arena, so the constraint
		// rows, variable bounds, integrality markers and adjacency lists
		// are all still exact -- only slot times (already refreshed in
		// m.nodes) and target values changed. Refresh the objective (edge
		// costs depend on slot times) and reuse everything else.
		st.RowReuses++
		for e := 0; e < m.ne; e++ {
			prob.C[e] = edgeCost(m.nodes[m.edges[e].to].t)
		}
		for j := 0; j < nz; j++ {
			prob.C[m.ne+j] = m.targets[j].Value
		}
		m.srcEdges = ar.srcEdges
		m.outEdges = ar.outEdges
		m.prob = prob
		return m
	}

	// Variables: one binary per edge, then one continuous cover variable
	// per target (integral at any optimum with binary edges).
	prob.C = growFloats(prob.C, nv)
	prob.Lower = growFloats(prob.Lower, nv)
	prob.Upper = growFloats(prob.Upper, nv)
	prob.Integer = growBools(prob.Integer, nv)
	for e := 0; e < m.ne; e++ {
		prob.C[e] = edgeCost(m.nodes[m.edges[e].to].t)
		prob.Lower[e] = 0
		// No explicit upper bound: every edge enters some node, and that
		// node's in(v) <= 1 row already caps the edge at 1. The
		// bounded-variable simplex makes the explicit [0,1] bound free
		// (no tableau row), but benchmarks show the open bound still
		// pivots faster here -- the row cap prices whole slot groups at
		// once where per-edge bound flips walk them one at a time.
		prob.Upper[e] = math.Inf(1)
		prob.Integer[e] = true
	}
	for j := 0; j < nz; j++ {
		prob.C[m.ne+j] = m.targets[j].Value
		prob.Lower[m.ne+j] = 0
		prob.Upper[m.ne+j] = 1
		prob.Integer[m.ne+j] = false
	}

	// Adjacency lists carved from one flat arena: count degrees, carve
	// zero-length blocks with exact capacity, then append in edge order
	// (identical list order to the old per-list append build).
	nn := len(m.nodes)
	nf := len(p.Followers)
	deg := growInts(ar.deg, nf+2*nn)
	clear(deg)
	ar.deg = deg
	for _, e := range m.edges {
		if e.from < 0 {
			deg[-1-e.from]++
		} else {
			deg[nf+nn+e.from]++
		}
		deg[nf+e.to]++
	}
	ar.adj = growInts(ar.adj, 2*len(m.edges))
	ar.srcEdges = growIntSlices(ar.srcEdges, nf)
	ar.inEdges = growIntSlices(ar.inEdges, nn)
	ar.outEdges = growIntSlices(ar.outEdges, nn)
	off := 0
	carve := func(n int) []int {
		blk := ar.adj[off : off : off+n]
		off += n
		return blk
	}
	for fi := 0; fi < nf; fi++ {
		ar.srcEdges[fi] = carve(deg[fi])
	}
	for vi := 0; vi < nn; vi++ {
		ar.inEdges[vi] = carve(deg[nf+vi])
		ar.outEdges[vi] = carve(deg[nf+nn+vi])
	}
	inEdges := ar.inEdges
	m.srcEdges = ar.srcEdges
	m.outEdges = ar.outEdges
	for ei, e := range m.edges {
		if e.from < 0 {
			m.srcEdges[-1-e.from] = append(m.srcEdges[-1-e.from], ei)
		} else {
			m.outEdges[e.from] = append(m.outEdges[e.from], ei)
		}
		inEdges[e.to] = append(inEdges[e.to], ei)
	}

	// Constraint rows are emitted directly in CSR form -- each row appends
	// its few nonzeros and closes with EndRow, so no dense row of width nv
	// is ever materialized and the same builder scales from tens to tens
	// of thousands of variables. The within-row coefficient sets are
	// identical to the dense rows this replaced, and neither engine is
	// sensitive to within-row emission order, so solves are unchanged.
	prob.ResetSparseRows()
	// in(v) <= 1 and out(v) - in(v) <= 0. The conservation row is emitted
	// even for nodes with no inbound edges: otherwise their outbound edges
	// would be unconstrained and flow could spontaneously start mid-graph,
	// covering targets through chains no follower actually flies.
	for vi := range m.nodes {
		if len(inEdges[vi]) > 0 {
			for _, ei := range inEdges[vi] {
				prob.Coef(ei, 1)
			}
			prob.EndRow(lp.LE, 1)
		}
		if len(m.outEdges[vi]) > 0 {
			for _, ei := range m.outEdges[vi] {
				prob.Coef(ei, 1)
			}
			for _, ei := range inEdges[vi] {
				prob.Coef(ei, -1)
			}
			prob.EndRow(lp.LE, 0)
		}
	}
	// One route per follower.
	for fi := range p.Followers {
		if len(m.srcEdges[fi]) > 0 {
			for _, ei := range m.srcEdges[fi] {
				prob.Coef(ei, 1)
			}
			prob.EndRow(lp.LE, 1)
		}
	}
	// z_j <= total inflow into any slot of target j.
	for j := 0; j < nz; j++ {
		prob.Coef(m.ne+j, 1)
		for vi, v := range m.nodes {
			if v.ti != j {
				continue
			}
			for _, ei := range inEdges[vi] {
				prob.Coef(ei, -1)
			}
		}
		prob.EndRow(lp.LE, 0)
	}
	m.prob = prob
	if st := s.State; st != nil {
		st.snapshotTopology(m, len(p.Followers))
	}
	return m
}

// extract walks the selected edges into per-follower capture sequences.
func (m *ilpModel) extract(ar *ilpArena, p *Problem, x []float64) Schedule {
	out := Schedule{Captures: make([][]Capture, len(p.Followers))}
	used := func(ei int) bool { return x[ei] > 0.5 }
	seen := growBools(ar.nodeSeen, len(m.nodes))
	ar.nodeSeen = seen
	clear(seen)
	for fi := range p.Followers {
		cur := -1
		for _, ei := range m.srcEdges[fi] {
			if used(ei) {
				cur = m.edges[ei].to
				break
			}
		}
		for cur >= 0 && !seen[cur] {
			seen[cur] = true
			v := m.nodes[cur]
			out.Captures[fi] = append(out.Captures[fi], Capture{
				TargetID: m.targets[v.ti].ID,
				Time:     v.t,
				Follower: fi,
				Aim:      m.targets[v.ti].Pos,
			})
			next := -1
			for _, ei := range m.outEdges[cur] {
				if used(ei) {
					next = m.edges[ei].to
					break
				}
			}
			cur = next
		}
	}
	ar.ids = appendCapturedIDs(ar.ids[:0], &out)
	out.Value = sumValues(ar.ids, ar.byIDMap(p))
	return out
}

// trimTargets drops targets with no window for any follower and, for very
// dense frames, keeps only the MaxTargets most valuable ones. The returned
// slice borrows arena storage.
func (s ILP) trimTargets(ar *ilpArena, p *Problem) []Target {
	out := ar.targets[:0]
	for _, tgt := range p.Targets {
		if tgt.Value <= 0 {
			continue
		}
		for _, f := range p.Followers {
			if _, _, ok := p.Window(f, tgt); ok {
				out = append(out, tgt)
				break
			}
		}
	}
	ar.targets = out
	limit := s.MaxTargets
	if limit <= 0 {
		limit = 30
	}
	// Allow proportionally more targets when there are more followers.
	limit *= len(p.Followers)
	if len(out) > limit {
		slices.SortFunc(out, func(a, b Target) int {
			if a.Value != b.Value {
				return cmp.Compare(b.Value, a.Value)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		out = out[:limit]
	}
	// Restore a deterministic spatial order (by along-track position).
	slices.SortFunc(out, func(a, b Target) int {
		if a.Pos.Y != b.Pos.Y {
			return cmp.Compare(a.Pos.Y, b.Pos.Y)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}
