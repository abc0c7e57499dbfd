// Package mip implements a branch-and-bound mixed-integer programming
// solver on top of the internal/lp simplex. Together they replace the
// Google OR-Tools dependency of the paper's prototype (§5.1) for EagleEye's
// two ILPs: target clustering (set cover) and actuation-aware follower
// scheduling (a time-expanded flow). Both formulations have tight LP
// relaxations, so branch and bound usually proves optimality in a handful
// of nodes.
package mip

import (
	"errors"
	"fmt"
	"math"
	"time"

	"eagleeye/internal/lp"
	"eagleeye/internal/obs"
)

// Problem is a mixed-integer program: the embedded LP plus a set of
// variables constrained to take integer values.
type Problem struct {
	lp.Problem
	// Integer[j] marks variable j as integral. Nil means all-continuous.
	Integer []bool
}

// NewBinary returns a Problem shell with n binary variables (integer,
// bounds [0,1]).
func NewBinary(n int) *Problem {
	p := &Problem{}
	p.C = make([]float64, n)
	p.Lower = make([]float64, n)
	p.Upper = make([]float64, n)
	p.Integer = make([]bool, n)
	for j := 0; j < n; j++ {
		p.Upper[j] = 1
		p.Integer[j] = true
	}
	return p
}

// AddRow appends a constraint row. The coefficient slice is used directly.
func (p *Problem) AddRow(coef []float64, sense lp.Sense, rhs float64) {
	p.A = append(p.A, coef)
	p.Senses = append(p.Senses, sense)
	p.B = append(p.B, rhs)
}

// AddSparseRow appends a constraint given as index/value pairs.
func (p *Problem) AddSparseRow(idx []int, val []float64, sense lp.Sense, rhs float64) {
	row := make([]float64, len(p.C))
	for k, j := range idx {
		row[j] += val[k]
	}
	p.AddRow(row, sense, rhs)
}

// Validate extends lp validation with integer-marker checks.
func (p *Problem) Validate() error {
	if err := p.Problem.Validate(); err != nil {
		return err
	}
	if p.Integer != nil && len(p.Integer) != len(p.C) {
		return fmt.Errorf("mip: integer markers length %d, want %d", len(p.Integer), len(p.C))
	}
	return nil
}

// Status mirrors lp.Status with an extra timeout outcome.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	// StatusFeasible means the search stopped early (time or node limit)
	// with an incumbent but no optimality proof.
	StatusFeasible
	// StatusLimit means the search stopped early with no incumbent.
	StatusLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusFeasible:
		return "feasible"
	case StatusLimit:
		return "limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a MIP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int           // branch-and-bound nodes explored
	Gap       float64       // best bound minus incumbent on early stop
	Iters     int           // total simplex iterations across all nodes
	PivotWall time.Duration // wall time spent inside LP solves

	// Warm-start accounting (see Options.WarmStart).
	WarmAttempted bool // a candidate was offered
	WarmAccepted  bool // the candidate verified feasible
	WarmPruned    int  // nodes cut by the warm floor, not by an incumbent
	BasisReuses   int  // LP solves that skipped phase 1 via basis reuse

	// Anomaly signals for the flight recorder, as per-solve deltas of the
	// workspace's cumulative counters.
	Refactorizations int // sparse-core mid-solve refactorizations
	RepairFails      int // dual-repair attempts that went cold
}

// feasTol is the absolute-plus-relative feasibility tolerance used when
// verifying rounded incumbents against the constraint rows.
const feasTol = 1e-6

// Options tunes the search. The zero value means defaults.
type Options struct {
	// TimeLimit bounds wall-clock search time; 0 means 10 s.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes; 0 means 200000.
	MaxNodes int
	// IntTol is the integrality tolerance; 0 means 1e-6.
	IntTol float64
	// MaxLPIters bounds the simplex iterations of each node relaxation;
	// 0 means the lp package default.
	MaxLPIters int
	// Metrics, when non-nil, receives per-solve counter updates (solves,
	// nodes, iterations, truncations, pivot wall time) and forwards its LP
	// set to the underlying simplex workspace. Recording happens once per
	// branch-and-bound search, never inside the node loop.
	Metrics *obs.SolverMetrics

	// WarmStart, when non-nil, offers a candidate solution from a previous
	// closely related solve (the previous frame's schedule, or a greedy
	// seed). The candidate is verified against bounds, integrality and
	// every constraint row before use; a failed verification is counted
	// and the solve proceeds cold. A verified candidate's value becomes a
	// pruning floor: open nodes whose LP bound cannot beat it are cut
	// before their relaxation is solved. The candidate is never returned
	// and never installed as the incumbent, so the search result is
	// identical to a cold solve (absent node/time truncation) -- warm
	// starting only removes work.
	WarmStart []float64
	// ReuseBasis forwards to lp.Workspace.ReuseBasis: LP relaxations
	// re-install the previous optimal basis when still primal-feasible,
	// skipping simplex phase 1. Leave off for workspaces whose solve
	// sequence is nondeterministic.
	ReuseBasis bool
}

func (o Options) withDefaults() Options {
	if o.TimeLimit == 0 {
		o.TimeLimit = 10 * time.Second
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.MaxLPIters == 0 {
		o.MaxLPIters = 200000
	}
	return o
}

// node is a branch-and-bound subproblem: bound overrides plus its parent's
// LP bound used as the best-first priority.
type node struct {
	lower, upper []float64
	bound        float64 // parent LP objective: an upper bound for this node
	depth        int
}

// Solve optimizes the MIP with default options.
func Solve(p *Problem) (Solution, error) { return SolveOpts(p, Options{}) }

// SolveOpts optimizes the MIP with a throwaway Workspace. Callers that
// solve many similarly shaped problems should hold a Workspace and use its
// SolveOpts method, which reuses the search and tableau arenas.
func SolveOpts(p *Problem, opts Options) (Solution, error) {
	var w Workspace
	return w.SolveOpts(p, opts)
}

func lower(p *lp.Problem, j int) float64 {
	if p.Lower == nil {
		return 0
	}
	return p.Lower[j]
}

func upper(p *lp.Problem, j int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[j]
}

// integralIncumbent turns a near-integral LP point into an incumbent: it
// rounds the integer components, verifies the rounded point still satisfies
// every constraint row, and falls back to the raw (LP-feasible) point when
// rounding broke feasibility. The returned slice is a fresh copy -- x may
// alias solver-internal storage -- and the returned value is the objective
// recomputed at the returned point.
func integralIncumbent(p *Problem, x []float64) ([]float64, float64) {
	cand := make([]float64, len(x))
	copy(cand, x)
	for j := range cand {
		if p.Integer != nil && p.Integer[j] {
			cand[j] = math.Round(cand[j])
		}
	}
	if !feasiblePoint(&p.Problem, cand) {
		copy(cand, x)
	}
	val := 0.0
	for j, c := range p.C {
		val += c * cand[j]
	}
	return cand, val
}

// verifyWarm checks a warm-start candidate against the problem: length,
// variable bounds, integrality of the integer-marked components, and every
// constraint row. It returns the candidate's objective value and whether
// it is usable. Verification is one pass over the rows -- about the cost
// of a single simplex pricing sweep -- so offering a stale candidate is
// cheap even when it gets rejected.
func verifyWarm(p *Problem, x []float64, intTol float64) (float64, bool) {
	if len(x) != len(p.C) {
		return 0, false
	}
	for j, v := range x {
		if v < lower(&p.Problem, j)-feasTol || v > upper(&p.Problem, j)+feasTol {
			return 0, false
		}
		if p.Integer != nil && p.Integer[j] && math.Abs(v-math.Round(v)) > intTol {
			return 0, false
		}
	}
	if !feasiblePoint(&p.Problem, x) {
		return 0, false
	}
	val := 0.0
	for j, c := range p.C {
		val += c * x[j]
	}
	return val, true
}

// feasiblePoint reports whether x satisfies every constraint row of p
// within an absolute-plus-relative tolerance. Variable bounds are not
// re-checked: rounding moves a point by at most the integrality tolerance,
// which cannot escape the (integral) branch bounds.
func feasiblePoint(p *lp.Problem, x []float64) bool {
	for i := range p.B {
		dot := 0.0
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				dot += p.Vals[k] * x[p.ColIdx[k]]
			}
		} else {
			for j, a := range p.A[i] {
				dot += a * x[j]
			}
		}
		tol := feasTol * (1 + math.Abs(p.B[i]))
		switch p.Senses[i] {
		case lp.LE:
			if dot > p.B[i]+tol {
				return false
			}
		case lp.GE:
			if dot < p.B[i]-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-p.B[i]) > tol {
				return false
			}
		}
	}
	return true
}

// nodeHeap is a max-heap on node.bound (best-first), breaking ties by depth
// (deeper first, to find incumbents quickly).
type nodeHeap struct{ ns []node }

func (h *nodeHeap) len() int { return len(h.ns) }

func (h *nodeHeap) less(i, j int) bool {
	if h.ns[i].bound != h.ns[j].bound {
		return h.ns[i].bound > h.ns[j].bound
	}
	return h.ns[i].depth > h.ns[j].depth
}

func (h *nodeHeap) push(n node) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ns[i], h.ns[parent] = h.ns[parent], h.ns[i]
		i = parent
	}
}

func (h *nodeHeap) pop() node {
	top := h.ns[0]
	last := len(h.ns) - 1
	h.ns[0] = h.ns[last]
	h.ns = h.ns[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.ns) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.ns) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.ns[i], h.ns[smallest] = h.ns[smallest], h.ns[i]
		i = smallest
	}
	return top
}

// ErrNoSolution is returned by convenience helpers when a solve ends
// without a usable solution.
var ErrNoSolution = errors.New("mip: no solution")

// Values extracts a rounded []int from a binary solution, for callers that
// index decisions by position.
func (s Solution) Values() ([]int, error) {
	if s.X == nil {
		return nil, ErrNoSolution
	}
	out := make([]int, len(s.X))
	for j, v := range s.X {
		out[j] = int(math.Round(v))
	}
	return out, nil
}
