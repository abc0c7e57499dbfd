// Package lp implements a two-phase primal simplex solver for linear
// programs, with two interchangeable engines behind one API: a dense
// tableau core for small instances and a sparse revised simplex (CSC
// columns, eta-file basis factorization, sparse BTRAN/FTRAN pricing) for
// large ones. It is the linear-algebra substrate beneath internal/mip,
// which together replace the Google OR-Tools dependency of the paper's
// prototype (§5.1): EagleEye's target-clustering and follower-scheduling
// ILPs both reduce to models this solver handles exactly.
//
// Problems are stated as
//
//	maximize   c · x
//	subject to A x (<=|=|>=) b
//	           lower <= x <= upper   (default 0 <= x < +inf)
//
// The implementation is a bounded-variable tableau simplex with Dantzig
// pricing and a Bland-rule fallback for cycling: variable bounds are
// handled implicitly (nonbasic variables sit at either bound and may flip
// between them without a pivot), so finite upper bounds cost no tableau
// rows. For the all-binary MIPs EagleEye builds this halves the row count
// relative to the textbook "upper bound = extra <= row" encoding. Free
// variables are handled natively: a free-below variable with a finite
// upper bound is mirrored (x = upper - x'), and a fully free variable is
// split into x⁺ - x⁻.
//
// A Workspace reuses the tableau arena across solves of same-shaped
// problems, which is what makes per-node re-solves in branch and bound
// allocation-free.
package lp

import (
	"errors"
	"fmt"
	"math"

	"eagleeye/internal/obs"
)

// Sense is the relational operator of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status describes the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
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
	case StatusIterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program in the form documented at the package level.
// Lower and Upper may be nil, meaning all-zero lower bounds and all-+inf
// upper bounds. Rows of A must all have len == len(C).
//
// Rows may alternatively be stored sparse (CSR) via RowPtr/ColIdx/Vals;
// exactly one of A and RowPtr may be set. Model builders that emit
// thousands of mostly-zero rows (sched, cluster) use the sparse form,
// which both cores consume directly without densifying rows.
type Problem struct {
	C      []float64   // objective coefficients (maximize)
	A      [][]float64 // constraint matrix rows (dense form)
	B      []float64   // right-hand sides
	Senses []Sense     // one per row
	Lower  []float64   // optional per-variable lower bounds
	Upper  []float64   // optional per-variable upper bounds

	// Sparse row storage (CSR). When RowPtr is non-nil it replaces A:
	// row i's coefficients are Vals[RowPtr[i]:RowPtr[i+1]] at columns
	// ColIdx[RowPtr[i]:RowPtr[i+1]]. Column indices must not repeat
	// within a row. Assemble with ResetSparseRows/Coef/EndRow.
	RowPtr []int
	ColIdx []int32
	Vals   []float64
}

// ResetSparseRows switches p to CSR row storage and clears all rows,
// keeping capacity. Rows are then appended with Coef and closed with
// EndRow.
func (p *Problem) ResetSparseRows() {
	p.A = nil
	if p.RowPtr == nil {
		p.RowPtr = make([]int, 1, 64)
	}
	p.RowPtr = p.RowPtr[:1]
	p.RowPtr[0] = 0
	p.ColIdx = p.ColIdx[:0]
	p.Vals = p.Vals[:0]
	p.B = p.B[:0]
	p.Senses = p.Senses[:0]
}

// Coef appends one coefficient to the CSR row under construction (opened
// implicitly by ResetSparseRows or the previous EndRow). Columns may
// arrive in any order but must not repeat within a row.
func (p *Problem) Coef(j int, v float64) {
	p.ColIdx = append(p.ColIdx, int32(j))
	p.Vals = append(p.Vals, v)
}

// EndRow closes the CSR row under construction with its sense and RHS.
func (p *Problem) EndRow(s Sense, b float64) {
	p.RowPtr = append(p.RowPtr, len(p.ColIdx))
	p.Senses = append(p.Senses, s)
	p.B = append(p.B, b)
}

// NNZ reports the stored coefficient count: structural nonzeros for CSR
// rows, m*n for dense rows (the dense form stores every entry).
func (p *Problem) NNZ() int {
	if p.RowPtr != nil {
		return len(p.Vals)
	}
	return len(p.B) * len(p.C)
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: no variables")
	}
	rows := len(p.B)
	if p.RowPtr != nil {
		if len(p.A) != 0 {
			return errors.New("lp: both dense A and CSR rows set")
		}
		if len(p.RowPtr) != rows+1 || len(p.Senses) != rows {
			return fmt.Errorf("lp: inconsistent CSR row counts: rowptr=%d B=%d senses=%d",
				len(p.RowPtr), rows, len(p.Senses))
		}
		if len(p.ColIdx) != len(p.Vals) || p.RowPtr[rows] != len(p.ColIdx) {
			return fmt.Errorf("lp: inconsistent CSR storage: colidx=%d vals=%d rowptr[last]=%d",
				len(p.ColIdx), len(p.Vals), p.RowPtr[rows])
		}
		for i := 0; i < rows; i++ {
			if p.RowPtr[i] > p.RowPtr[i+1] {
				return fmt.Errorf("lp: CSR row %d has negative length", i)
			}
		}
		for k, j := range p.ColIdx {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("lp: CSR entry %d references column %d, want [0,%d)", k, j, n)
			}
		}
	} else {
		if len(p.A) != rows || rows != len(p.Senses) {
			return fmt.Errorf("lp: inconsistent row counts: A=%d B=%d senses=%d",
				len(p.A), len(p.B), len(p.Senses))
		}
		for i, row := range p.A {
			if len(row) != n {
				return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
			}
		}
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: lower bounds length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: upper bounds length %d, want %d", len(p.Upper), n)
	}
	for j := 0; j < n; j++ {
		if p.lower(j) > p.upper(j)+1e-12 {
			return fmt.Errorf("lp: variable %d has lower %v > upper %v", j, p.lower(j), p.upper(j))
		}
	}
	return nil
}

func (p *Problem) lower(j int) float64 {
	if p.Lower == nil {
		return 0
	}
	return p.Lower[j]
}

func (p *Problem) upper(j int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[j]
}

// Core selects the simplex engine a Workspace uses.
type Core int8

// Engine choices. CoreAuto picks per problem: the dense tableau below
// sparseCrossover variables+rows (tiny per-node LPs should not pay basis
// factorization overhead, and the seed-scale sim stays byte-identical),
// the sparse revised simplex at or above it. CoreDense and CoreSparse
// force one engine; the dense core doubles as a differential oracle for
// the sparse one.
const (
	CoreAuto Core = iota
	CoreDense
	CoreSparse
)

// sparseCrossover is the variables+rows threshold at which CoreAuto
// switches engines. Below it the dense tableau fits comfortably in cache
// and its branch-free pivot loop wins; above it the O(m*n) tableau memory
// and O(m*n) work per pivot lose to O(nnz) pricing. The value is
// deliberately conservative so every seed-scale scheduling model keeps
// its historical dense pivot sequence.
const sparseCrossover = 4096

// Partial-pricing policy for the sparse core. Dantzig pricing is O(priced
// columns) per pivot; on shard-scale models that sweep dominates. Above
// partialPricingMinCols priced columns the sparse optimizer prices a
// rotating window of partialPricingWindow columns instead, extending the
// window until it finds an eligible column (a full empty rotation is the
// usual optimality certificate), with a full Dantzig sweep every
// partialFullSweepPeriod iterations to keep steepest progress. The
// threshold sits far above every seed-scale model so historical pivot
// sequences -- and BENCH_lp.json seed points -- are unaffected.
const (
	partialPricingMinCols  = 8192
	partialPricingWindow   = 1024
	partialFullSweepPeriod = 32
)

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (original problem space)
	Objective float64   // c · X
	Iters     int       // simplex iterations used
}

const (
	eps        = 1e-9 // pivot / reduced-cost tolerance
	feasTol    = 1e-7 // feasibility tolerance
	defaultMax = 200000
)

// Solve optimizes the problem. The returned error is non-nil only for
// structurally invalid problems; infeasible/unbounded outcomes are reported
// through Solution.Status.
func Solve(p *Problem) (Solution, error) {
	return SolveMaxIters(p, defaultMax)
}

// SolveMaxIters is Solve with an explicit simplex iteration limit.
func SolveMaxIters(p *Problem, maxIters int) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	var ws Workspace
	return ws.SolveMaxIters(p, maxIters), nil
}

// Workspace owns the solver's working arrays so repeated solves of
// same-shaped problems -- branch-and-bound nodes differing only in bounds
// -- reuse one arena instead of allocating a fresh m x total tableau per
// solve. The zero value is ready to use. A Workspace is not safe for
// concurrent use, and the X slice of a returned Solution aliases an
// internal buffer: it is valid only until the next solve on the same
// workspace (copy it to keep it).
//
// Workspace solves skip Problem.Validate for speed; callers must pass
// structurally valid problems (package-level Solve validates).
type Workspace struct {
	t tableau

	// Obs, when non-nil, receives per-solve counter updates (solves,
	// pivot iterations, iteration-limit hits). It is fed once per solve
	// after the pivot loop finishes -- never inside it -- so enabling
	// metrics does not touch the simplex hot path.
	Obs *obs.LPMetrics

	// ReuseBasis enables starting-basis reuse across same-shaped solves
	// (warm.go): after an optimal solve the basis is saved, and the next
	// solve of a same-shaped problem re-installs it instead of running
	// phase 1, falling back to the cold two-phase path when the basis is
	// stale. Off by default. Reuse makes a solve's pivot sequence depend
	// on the previous solve, so it must stay off on workspaces whose
	// solve order is nondeterministic (e.g. sync.Pool-shared arenas).
	ReuseBasis bool
	// BasisReuses counts solves that started from an installed basis.
	BasisReuses int

	// Core selects the simplex engine (CoreAuto by default). Saved bases
	// are portable between engines: both reference the same column
	// numbering, so a warm basis saved by one installs on the other.
	Core Core
	// RefactorEvery, when > 0, forces the sparse core to refactorize the
	// basis after that many eta updates; 0 selects the adaptive default.
	// Tests use 1 to exercise the refactorization path on every pivot.
	RefactorEvery int
	// Factorizations and Refactorizations count sparse-core basis
	// factorizations: total, and the subset triggered mid-solve by the
	// eta-file budget or a stability alarm (rather than by a warm
	// install or crash start).
	Factorizations   int
	Refactorizations int
	// RepairFails counts dual-repair attempts (either core) that could
	// not restore feasibility of an installed basis, forcing the cold
	// path. A nonzero delta on a solve is an anomaly signal: the reused
	// basis was stale beyond the pivot budget.
	RepairFails int

	// PricingWindow tunes the sparse core's partial pricing. 0 (the
	// default) applies the automatic policy: window pricing only when the
	// priced column count reaches partialPricingMinCols. A positive value
	// forces that window size whenever the priced prefix exceeds it (test
	// and benchmark hook); a negative value disables partial pricing
	// entirely. The dense core always prices fully. Bland's rule, when
	// triggered, always scans the full ascending prefix: anti-cycling
	// needs the first-eligible-by-index guarantee.
	PricingWindow int
	// PartialPricingSolves counts solves in which at least one pivot was
	// priced through a partial window.
	PartialPricingSolves int

	// grow-only arenas backing the tableau.
	abuf  []float64 // m x total matrix storage
	cols  []varCol  // per-variable column mapping
	brow  []float64 // adjusted RHS per row
	esens []Sense   // effective sense per row (after sign normalization)
	flip  []bool    // row was sign-normalized
	ph1   []float64 // phase-1 objective
	red   []float64 // reduced costs
	vals  []float64 // structural column values during extraction
	xbuf  []float64 // extracted solution

	// saved basis snapshot for ReuseBasis (warm.go).
	savedBasis                     []int
	savedAtUpper                   []bool
	savedM, savedTotal, savedNcols int
	savedOK                        bool

	// seed is a one-shot crash-basis candidate for the next solve
	// (warm.go, SeedPoint).
	seed []float64

	// shape analysis shared by both cores (set by analyze).
	shp      shape
	fixedCol []bool  // structural column is fixed by its bounds (rng == 0)
	price    []int32 // pricing index: enterable columns, ascending

	// sp holds the sparse revised simplex engine, allocated on first use
	// so dense-only workspaces (the seed-scale sim) never pay for it.
	sp *sparseCore

	// blandOverride, when > 0, switches pricing to Bland's rule after
	// that many iterations of a phase (test hook; 0 keeps the default
	// 4*(m+total) threshold).
	blandOverride int
}

// shape is the tableau geometry both cores share. Saved bases reference
// these column indices, which is what makes them portable across engines
// and across solves of same-shaped problems.
type shape struct {
	m, ncols, nslack, nartif, total, artbase int
}

// Solve optimizes with the default iteration limit, reusing the arena.
func (ws *Workspace) Solve(p *Problem) Solution {
	return ws.SolveMaxIters(p, defaultMax)
}

// SolveMaxIters optimizes with an explicit simplex iteration limit,
// reusing the arena. See the Workspace doc for aliasing and validation
// caveats.
func (ws *Workspace) SolveMaxIters(p *Problem, maxIters int) Solution {
	if ws.useSparse(p) {
		return ws.solveSparse(p, maxIters)
	}
	return ws.solveDense(p, maxIters)
}

// useSparse applies the engine selection policy (Core field, crossover
// heuristic) to one problem.
func (ws *Workspace) useSparse(p *Problem) bool {
	switch ws.Core {
	case CoreDense:
		return false
	case CoreSparse:
		return true
	}
	return len(p.C)+len(p.B) >= sparseCrossover
}

// pricingWindowFor resolves the partial-pricing window for a priced
// prefix of the given length; 0 means price the whole prefix.
func (ws *Workspace) pricingWindowFor(priced int) int {
	switch {
	case ws.PricingWindow < 0:
		return 0
	case ws.PricingWindow > 0:
		if priced > ws.PricingWindow {
			return ws.PricingWindow
		}
		return 0
	default:
		if priced >= partialPricingMinCols {
			return partialPricingWindow
		}
		return 0
	}
}

func (ws *Workspace) solveDense(p *Problem, maxIters int) Solution {
	// With a saved basis on hand, build shape-stably (negative LE
	// right-hand sides stay unflipped) so branch-tightened bounds cannot
	// change the tableau shape out from under the install.
	warmTry := ws.ReuseBasis && ws.savedOK
	seed := ws.seed
	ws.seed = nil
	if !ws.build(p, warmTry) {
		// Bound analysis found an empty variable box: infeasible.
		if ws.Obs != nil {
			ws.Obs.Solves.Inc()
		}
		return Solution{Status: StatusInfeasible}
	}
	t := &ws.t
	reused := false
	if warmTry {
		if ws.basisShapeMatches() && ws.installBasis() && (t.primalFeasible() || ws.dualRepair(2*t.m+16)) {
			reused = true
		} else {
			// A failed reuse (shape drift, singular basis, or infeasibility
			// the dual repair could not fix) leaves the tableau unusable for
			// the cold path -- partially eliminated, possibly with negative
			// right-hand sides -- so rebuild normalized, keeping any repair
			// pivots in the iteration count. Stale bases rarely recover, so
			// drop the snapshot rather than retry it every solve.
			spent := t.iters
			ws.savedOK = false
			ws.build(p, false)
			t.iters = spent
		}
	}
	if !reused && seed != nil && t.nartif == 0 {
		// No previous basis applies, but the caller supplied a feasible
		// point: crash a basis at its vertex and go straight to phase 2.
		if ws.crashBasis(p, seed) && (t.primalFeasible() || ws.dualRepair(2*t.m+16)) {
			reused = true
		} else {
			spent := t.iters
			ws.build(p, false)
			t.iters = spent
		}
	}
	var st Status
	if reused {
		// Warm start: the previous optimal basis is still primal-feasible,
		// so phase 2 runs directly from it and phase 1 is skipped.
		ws.BasisReuses++
		st, _ = t.optimize(ws, t.obj, maxIters, false)
	} else {
		st = t.solve(ws, maxIters)
	}
	if ws.ReuseBasis && st == StatusOptimal {
		ws.saveBasis()
	}
	sol := Solution{Status: st, Iters: t.iters}
	if ws.Obs != nil {
		ws.Obs.Solves.Inc()
		ws.Obs.Iters.Add(int64(t.iters))
		if st == StatusIterLimit {
			ws.Obs.IterLimited.Inc()
		}
		if ws.Obs.DenseSolves != nil {
			ws.Obs.DenseSolves.Inc()
		}
		if ws.Obs.InstanceNNZ != nil {
			ws.Obs.InstanceNNZ.SetMax(float64(p.NNZ()))
		}
	}
	if st != StatusOptimal {
		return sol
	}
	ws.xbuf = growFloats(ws.xbuf, len(p.C))
	sol.X = ws.xbuf[:len(p.C)]
	ws.vals = growFloats(ws.vals, t.ncols)
	t.extract(p, ws.cols, ws.vals[:t.ncols], sol.X)
	for j, c := range p.C {
		sol.Objective += c * sol.X[j]
	}
	return sol
}

// varCol maps one original variable onto structural tableau columns.
type varCol struct {
	col    int     // primary column index
	neg    int     // second column of a split free variable; -1 if none
	shift  float64 // lower bound (normal) or upper bound (mirror)
	mirror bool    // x = shift - x': free-below with finite upper
}

// tableau is the working state of the bounded-variable two-phase simplex.
// Invariants: a holds B^-1 A (updated by pivots), rhs holds the CURRENT
// basic-variable values (not B^-1 b: nonbasic variables at their upper
// bound contribute), and every nonbasic column sits at 0 or at rng[j]
// per atUpper[j] in the shifted space.
type tableau struct {
	m       int         // constraint rows
	total   int         // total columns incl. slacks/artificials
	ncols   int         // structural columns
	a       [][]float64 // m x total
	rhs     []float64   // m: basic-variable values
	rng     []float64   // per-column range upper-lower (shifted); +inf ok
	obj     []float64   // phase-2 objective per column
	basis   []int       // basic column per row
	inBasis []bool      // per-column basis membership
	atUpper []bool      // nonbasic column sits at its upper bound
	cb      []float64   // scratch: objective of basic columns
	nartif  int
	artbase int // first artificial column index
	iters   int

	// grow-only index scratch for the price, reprice and eliminate kernels.
	rowIdx   []int   // rows eliminate applies, ascending
	colIdx   []int32 // nonzero columns of the last pivot row, ascending
	costRows []int   // rows whose basic cost cb is nonzero, ascending
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// analyze computes the variable/column mapping, row normalization, and
// tableau shape shared by both cores, plus the pricing index (enterable
// columns; variables fixed by their bounds are excluded once here instead
// of being skipped by every pricing sweep). It returns false when some
// variable box is empty (lower > upper), which the caller reports as
// infeasible.
//
// allowNegRHS keeps LE rows whose (shift-adjusted) right-hand side is
// negative unflipped: the slack stays basic at a negative value instead of
// the row gaining an artificial. That start is primal infeasible, so it is
// only valid on the basis-reuse path, where the basis install overwrites
// the basis anyway and dualRepair settles feasibility -- but it makes the
// tableau SHAPE depend only on senses and variable freeness, not on bound
// values, which is what lets a branch-and-bound child (whose tightened
// bound drives an RHS negative) reuse its parent's basis. The cold path
// always builds with allowNegRHS=false, preserving the b >= 0 invariant
// the two-phase simplex relies on.
func (ws *Workspace) analyze(p *Problem, allowNegRHS bool) bool {
	n := len(p.C)
	if cap(ws.cols) < n {
		ws.cols = make([]varCol, n)
	}
	ws.cols = ws.cols[:n]
	ncols := 0
	for j := 0; j < n; j++ {
		lo, up := p.lower(j), p.upper(j)
		if up < lo-1e-12 {
			return false
		}
		vc := varCol{col: ncols, neg: -1}
		switch {
		case !math.IsInf(lo, -1):
			vc.shift = lo
			ncols++
		case !math.IsInf(up, 1):
			// Free below, capped above: mirror so x' = up - x >= 0.
			vc.mirror = true
			vc.shift = up
			ncols++
		default:
			// Fully free: split into x⁺ - x⁻.
			vc.neg = ncols + 1
			ncols += 2
		}
		ws.cols[j] = vc
	}

	m := len(p.B)
	ws.brow = growFloats(ws.brow, m)
	ws.flip = growBools(ws.flip, m)
	if cap(ws.esens) < m {
		ws.esens = make([]Sense, m)
	}
	ws.esens = ws.esens[:m]
	nslack, nartif := 0, 0
	for i := 0; i < m; i++ {
		b := p.B[i]
		// Shift contributions: x = shift + x' (normal) or shift - x'
		// (mirror) both subtract a_ij * shift from the RHS.
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				if vc := &ws.cols[p.ColIdx[k]]; vc.neg < 0 {
					b -= p.Vals[k] * vc.shift
				}
			}
		} else {
			row := p.A[i]
			for j := 0; j < n; j++ {
				if ws.cols[j].neg < 0 {
					b -= row[j] * ws.cols[j].shift
				}
			}
		}
		s := p.Senses[i]
		// Normalize negative RHS by negating the row (except LE rows on the
		// reuse path; see the allowNegRHS doc).
		fl := b < 0 && !(allowNegRHS && s == LE)
		if fl {
			b = -b
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		ws.brow[i], ws.esens[i], ws.flip[i] = b, s, fl
		switch s {
		case LE:
			nslack++
		case GE:
			nslack++
			nartif++
		case EQ:
			nartif++
		}
	}

	total := ncols + nslack + nartif
	ws.shp = shape{m: m, ncols: ncols, nslack: nslack, nartif: nartif,
		total: total, artbase: ncols + nslack}

	// Fixed structural columns (upper == lower in shifted space, i.e.
	// rng 0) can never enter the basis; mark them so pricing skips them
	// without a per-iteration range check. Branch-and-bound bound
	// tightening fixes many variables, so at depth this prunes a large
	// slice of every Dantzig sweep.
	ws.fixedCol = growBools(ws.fixedCol, ncols)
	for c := range ws.fixedCol[:ncols] {
		ws.fixedCol[c] = false
	}
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		if vc.neg < 0 && !vc.mirror {
			if up := p.upper(j); !math.IsInf(up, 1) && up-vc.shift <= 0 {
				ws.fixedCol[vc.col] = true
			}
		}
	}
	if cap(ws.price) < total {
		ws.price = make([]int32, 0, total)
	}
	ws.price = ws.price[:0]
	for c := 0; c < total; c++ {
		if c < ncols && ws.fixedCol[c] {
			continue
		}
		ws.price = append(ws.price, int32(c))
	}
	return true
}

// build assembles the dense tableau for p inside the workspace arena:
// shape analysis followed by dense materialization. Returns false when
// some variable box is empty.
func (ws *Workspace) build(p *Problem, allowNegRHS bool) bool {
	if !ws.analyze(p, allowNegRHS) {
		return false
	}
	ws.materializeDense(p)
	return true
}

// materializeDense fills the dense tableau from the analysis in ws.shp,
// ws.cols, ws.brow, ws.esens and ws.flip.
func (ws *Workspace) materializeDense(p *Problem) {
	n := len(p.C)
	m, ncols, total := ws.shp.m, ws.shp.ncols, ws.shp.total
	t := &ws.t
	t.m, t.total, t.ncols = m, total, ncols
	t.nartif, t.artbase = ws.shp.nartif, ws.shp.artbase
	t.iters = 0

	ws.abuf = growFloats(ws.abuf, m*total)
	for i := range ws.abuf[:m*total] {
		ws.abuf[i] = 0
	}
	if cap(t.a) < m {
		t.a = make([][]float64, m)
	}
	t.a = t.a[:m]
	for i := 0; i < m; i++ {
		t.a[i] = ws.abuf[i*total : (i+1)*total]
	}
	t.rhs = growFloats(t.rhs, m)
	t.basis = growInts(t.basis, m)
	t.cb = growFloats(t.cb, m)
	t.rowIdx = growInts(t.rowIdx, m)
	t.colIdx = growInt32s(t.colIdx, total)
	t.costRows = growInts(t.costRows, m)
	t.inBasis = growBools(t.inBasis, total)
	t.atUpper = growBools(t.atUpper, total)
	t.rng = growFloats(t.rng, total)
	t.obj = growFloats(t.obj, total)
	for j := 0; j < total; j++ {
		t.inBasis[j] = false
		t.atUpper[j] = false
		t.rng[j] = math.Inf(1)
		t.obj[j] = 0
	}
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		switch {
		case vc.neg >= 0:
			t.obj[vc.col], t.obj[vc.neg] = p.C[j], -p.C[j]
		case vc.mirror:
			t.obj[vc.col] = -p.C[j]
		default:
			t.obj[vc.col] = p.C[j]
			if up := p.upper(j); !math.IsInf(up, 1) {
				r := up - vc.shift
				if r < 0 {
					r = 0 // lower ~ upper within tolerance: fixed variable
				}
				t.rng[vc.col] = r
			}
		}
	}

	slackCol, artCol := ncols, t.artbase
	for i := 0; i < m; i++ {
		sgn := 1.0
		if ws.flip[i] {
			sgn = -1
		}
		ri := t.a[i]
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				vc := ws.cols[p.ColIdx[k]]
				c := p.Vals[k] * sgn
				if vc.neg >= 0 {
					ri[vc.col] = c
					ri[vc.neg] = -c
				} else if vc.mirror {
					ri[vc.col] = -c
				} else {
					ri[vc.col] = c
				}
			}
		} else {
			row := p.A[i]
			for j := 0; j < n; j++ {
				vc := ws.cols[j]
				c := row[j] * sgn
				if vc.neg >= 0 {
					ri[vc.col] = c
					ri[vc.neg] = -c
				} else if vc.mirror {
					ri[vc.col] = -c
				} else {
					ri[vc.col] = c
				}
			}
		}
		t.rhs[i] = ws.brow[i]
		switch ws.esens[i] {
		case LE:
			ri[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			ri[slackCol] = -1
			slackCol++
			ri[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			ri[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.inBasis[t.basis[i]] = true
	}
	ws.red = growFloats(ws.red, total)
}

// solve runs phase 1 (if artificials exist) then phase 2.
func (t *tableau) solve(ws *Workspace, maxIters int) Status {
	if t.nartif > 0 {
		// Phase 1: maximize -(sum of artificials).
		ws.ph1 = growFloats(ws.ph1, t.total)
		ph1 := ws.ph1[:t.total]
		for j := range ph1 {
			ph1[j] = 0
		}
		for j := t.artbase; j < t.total; j++ {
			ph1[j] = -1
		}
		st, objVal := t.optimize(ws, ph1, maxIters, true)
		if st == StatusUnbounded {
			// Phase-1 objective is bounded above by 0; treat as numeric
			// failure.
			return StatusIterLimit
		}
		if st != StatusOptimal {
			return st
		}
		if objVal < -feasTol {
			return StatusInfeasible
		}
		// Pivot remaining artificials out of the basis where possible.
		t.evictArtificials()
	}
	st, _ := t.optimize(ws, t.obj, maxIters, false)
	return st
}

// optimize runs simplex iterations for the given objective, returning the
// status and the achieved objective value (in shifted space). Columns at or
// beyond artbase are never allowed to enter during phase 2. The reduced
// costs are priced in full on the first iteration and kept current after
// that: each pivot re-prices the columns it changed (reprice), and a
// bound flip changes none.
func (t *tableau) optimize(ws *Workspace, obj []float64, maxIters int, phase1 bool) (Status, float64) {
	limit := t.total
	if !phase1 {
		limit = t.artbase // artificials may not re-enter
	}
	red := ws.red
	for iter := 0; ; iter++ {
		if t.iters >= maxIters {
			return StatusIterLimit, 0
		}
		t.iters++
		if iter == 0 {
			t.price(obj, red, limit)
		}
		// Entering column: a nonbasic at its lower bound improves by
		// increasing (red > 0); one at its upper bound by decreasing
		// (red < 0). Dantzig normally; Bland (first eligible) when the
		// iteration count in this phase grows large (anti-cycling). The
		// sweep walks ws.price, which already excludes bound-fixed
		// columns; it is ascending, so the first eligible under Bland is
		// the same column the full scan would pick.
		blandAfter := 4 * (t.m + t.total)
		if ws.blandOverride > 0 {
			blandAfter = ws.blandOverride
		}
		bland := iter > blandAfter
		enter := -1
		dir := 1.0
		best := eps
		for _, j32 := range ws.price {
			j := int(j32)
			if j >= limit {
				break
			}
			if t.inBasis[j] {
				continue
			}
			r := red[j]
			if t.atUpper[j] {
				r = -r
			}
			if r > best {
				enter = j
				dir = 1
				if t.atUpper[j] {
					dir = -1
				}
				if bland {
					break
				}
				best = r
			}
		}
		if enter < 0 {
			return StatusOptimal, t.objValue(obj)
		}
		// Ratio test along direction dir: the entering variable moves by
		// step >= 0 until (a) a basic variable hits its lower bound,
		// (b) a basic variable hits its upper bound, or (c) the entering
		// variable reaches its own opposite bound (a bound flip: no
		// pivot, just reanchor the column).
		step := t.rng[enter]
		fl := !math.IsInf(step, 1)
		leave, leaveAtUpper := -1, false
		for i := 0; i < t.m; i++ {
			w := dir * t.a[i][enter]
			var r float64
			var hitUpper bool
			if w > eps {
				r = t.rhs[i] / w
			} else if w < -eps {
				ub := t.rng[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				r = (ub - t.rhs[i]) / -w
				hitUpper = true
			} else {
				continue
			}
			if r < step-eps || (r < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				step = r
				leave = i
				leaveAtUpper = hitUpper
				fl = false
			}
		}
		if leave < 0 && !fl {
			return StatusUnbounded, 0
		}
		if step < 0 {
			step = 0 // degenerate: clamp numerical noise
		}
		if fl {
			// Bound flip: the entering variable swings to its other
			// bound; basic values shift, the basis is unchanged.
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= step * dir * t.a[i][enter]
			}
			t.atUpper[enter] = !t.atUpper[enter]
			continue
		}
		nz := t.pivot(leave, enter, dir, step, leaveAtUpper)
		t.reprice(obj, red, limit, leave, nz)
	}
}

// objValue computes the current objective in shifted space: basic values
// plus nonbasic-at-upper contributions.
func (t *tableau) objValue(obj []float64) float64 {
	val := 0.0
	for i := 0; i < t.m; i++ {
		val += obj[t.basis[i]] * t.rhs[i]
	}
	for j := 0; j < t.total; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			val += obj[j] * t.rng[j]
		}
	}
	return val
}

// pivot moves the entering column into the basis at row `row`, with the
// entering variable having travelled `step` from its current bound in
// direction `dir`. The leaving variable exits at its lower bound, or at
// its upper bound when leaveAtUpper is set. rhs is updated to the new
// basic values directly (it holds values, not B^-1 b), then eliminate
// applies the Gauss-Jordan step to the matrix. It returns eliminate's list
// of the columns the pivot changed, for reprice.
func (t *tableau) pivot(row, col int, dir, step float64, leaveAtUpper bool) []int32 {
	for i := 0; i < t.m; i++ {
		if i != row {
			t.rhs[i] -= step * dir * t.a[i][col]
		}
	}
	if dir > 0 {
		t.rhs[row] = step // entered rising from its lower bound
	} else {
		t.rhs[row] = t.rng[col] - step // entered falling from its upper bound
	}
	lv := t.basis[row]
	t.atUpper[lv] = leaveAtUpper

	nz := t.eliminate(row, col)
	t.inBasis[lv] = false
	t.basis[row] = col
	t.inBasis[col] = true
	t.atUpper[col] = false
	return nz
}

// price sets red[:limit] to the reduced costs obj - A^T cB of the first
// limit columns, where cB holds the objective of each row's basic column
// (the tableau columns hold B^-1 A). Only rows whose basic cost is
// nonzero contribute, four rows per pass over the columns. Within a pass
// each column takes its four subtractions in ascending row order, as
// separately rounded operations, so every reduced cost gets exactly the
// operations, in exactly the order, of a one-row-at-a-time sweep: the
// bits do not depend on the grouping. cb and the list of rows with a
// nonzero basic cost are left for reprice.
func (t *tableau) price(obj, red []float64, limit int) {
	cb, rows := t.cb, t.costRows[:0]
	for i := 0; i < t.m; i++ {
		c := obj[t.basis[i]]
		cb[i] = c
		if c != 0 {
			rows = append(rows, i)
		}
	}
	t.costRows = rows
	rd := red[:limit]
	copy(rd, obj[:limit])
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		i0, i1, i2, i3 := rows[k], rows[k+1], rows[k+2], rows[k+3]
		c0, c1, c2, c3 := cb[i0], cb[i1], cb[i2], cb[i3]
		r0 := t.a[i0][:len(rd)]
		r1 := t.a[i1][:len(rd)]
		r2 := t.a[i2][:len(rd)]
		r3 := t.a[i3][:len(rd)]
		for j := range rd {
			rd[j] = rd[j] - c0*r0[j] - c1*r1[j] - c2*r2[j] - c3*r3[j]
		}
	}
	for ; k < len(rows); k++ {
		c := cb[rows[k]]
		ri := t.a[rows[k]][:len(rd)]
		for j, v := range ri {
			rd[j] -= c * v
		}
	}
}

// reprice brings red[:limit], as priced by price for obj, up to date after
// a pivot on row `row` whose eliminate changed the columns in nz. It
// refreshes the pivot row's basic cost and re-prices only the columns of
// nz below limit, each with price's operations in price's order, so each
// gets the bits a full price would give it.
//
// Every other column keeps its reduced cost, and a full price would give
// it an equal value. Its pivot-row entry is ±0 before and after the pivot,
// and eliminate touched none of its entries, so a full price subtracts the
// same products in the same order except the pivot row's term, which is
// cost × ±0 on both sides. Subtracting it changes at most the sign of a
// zero reduced cost, and no decision reads that sign: entering selection
// tests r > best with best ≥ eps, and the dual-repair ratio compares
// values and magnitudes. A non-finite cost breaks the argument (Inf × 0 is
// NaN), so when the leaving or the entering column's cost is not finite
// reprice falls back to a full price.
//
// The textbook update d ← d − d_q·α_r would also be O(nnz) but rounds
// differently, so near-tie pivots would drift from a full price.
func (t *tableau) reprice(obj, red []float64, limit, row int, nz []int32) {
	cb := t.cb
	old, c := cb[row], obj[t.basis[row]]
	if !finite(old) || !finite(c) {
		t.price(obj, red, limit)
		return
	}
	cb[row] = c
	if (old == 0) != (c == 0) {
		rows := t.costRows[:0]
		for i, ci := range cb[:t.m] {
			if ci != 0 {
				rows = append(rows, i)
			}
		}
		t.costRows = rows
	}
	for len(nz) > 0 && int(nz[len(nz)-1]) >= limit {
		nz = nz[:len(nz)-1]
	}
	rd := red[:limit]
	for _, j := range nz {
		rd[j] = obj[j]
	}
	rows := t.costRows
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		i0, i1, i2, i3 := rows[k], rows[k+1], rows[k+2], rows[k+3]
		c0, c1, c2, c3 := cb[i0], cb[i1], cb[i2], cb[i3]
		r0 := t.a[i0][:len(rd)]
		r1 := t.a[i1][:len(rd)]
		r2 := t.a[i2][:len(rd)]
		r3 := t.a[i3][:len(rd)]
		for _, j := range nz {
			rd[j] = rd[j] - c0*r0[j] - c1*r1[j] - c2*r2[j] - c3*r3[j]
		}
	}
	for ; k < len(rows); k++ {
		c := cb[rows[k]]
		ri := t.a[rows[k]][:len(rd)]
		for _, j := range nz {
			rd[j] -= c * ri[j]
		}
	}
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// eliminate is the Gauss-Jordan step shared by pivot, installBasis and
// crashBasis: it scales row `row` by 1/a[row][col], then subtracts
// a[i][col] times that row from every other row i whose entry in col is
// nonzero, which leaves col a unit column. The rhs is the caller's: it
// must be updated from the pre-elimination column before the call. It
// returns the pivot row's nonzero columns, ascending, which are the only
// columns it changes (the slice is scratch, valid until the next call).
//
// The nonzero columns are collected before scaling, without a branch per
// entry (see nonzero), and only they are scaled and touched, four rows
// per pass. An entry whose scaled value
// underflows to 0 stays on the list: it has changed, and eliminating with
// it subtracts f·0, which at most flips the sign of a zero. Every entry
// that is touched gets the same single rounded operation a full-row sweep
// gives it, so it keeps its exact bits. An untouched entry is one where
// the pivot row holds +0 or -0, where the full sweep would subtract a
// signed zero (and would rewrite the pivot row's zero as 0·inv): a
// nonzero entry is unchanged by that, and a zero entry stays a zero --
// the only difference is the sign of some zeros. No decision the simplex
// makes can see that sign: every test on a tableau or rhs entry compares
// against +-eps, tests == 0 or compares magnitudes, the only reciprocals
// are of chosen pivots (|w| > eps or > installTol), and the solver never
// inspects a sign bit. So the pivots, and the results, are the same as
// with the full-row sweep.
func (t *tableau) eliminate(row, col int) []int32 {
	pr := t.a[row][:t.total]
	inv := 1 / pr[col]
	nz := t.colIdx[:len(pr)]
	n := 0
	for j, v := range pr {
		nz[n] = int32(j)
		n += nonzero(v)
	}
	nz = nz[:n]
	for _, j := range nz {
		pr[j] *= inv
	}
	rows := t.rowIdx[:0]
	for i := 0; i < t.m; i++ {
		if i != row && t.a[i][col] != 0 {
			rows = append(rows, i)
		}
	}
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		r0 := t.a[rows[k]][:len(pr)]
		r1 := t.a[rows[k+1]][:len(pr)]
		r2 := t.a[rows[k+2]][:len(pr)]
		r3 := t.a[rows[k+3]][:len(pr)]
		f0, f1, f2, f3 := r0[col], r1[col], r2[col], r3[col]
		for _, j := range nz {
			v := pr[j]
			r0[j] -= f0 * v
			r1[j] -= f1 * v
			r2[j] -= f2 * v
			r3[j] -= f3 * v
		}
	}
	for ; k < len(rows); k++ {
		ri := t.a[rows[k]][:len(pr)]
		f := ri[col]
		for _, j := range nz {
			ri[j] -= f * pr[j]
		}
	}
	return nz
}

// nonzero is 1 when v != 0 (NaN included) and 0 for ±0, computed without
// a branch: the shift drops the sign bit, and x|-x has its top bit set
// exactly when x != 0.
func nonzero(v float64) int {
	x := math.Float64bits(v) << 1
	return int((x | -x) >> 63)
}

// evictArtificials pivots basic artificial variables (at value ~0 after a
// feasible phase 1) out of the basis when a non-artificial pivot exists.
// A zero-step pivot swaps the basis without moving the point.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artbase {
			continue
		}
		for j := 0; j < t.artbase; j++ {
			if !t.inBasis[j] && math.Abs(t.a[i][j]) > eps {
				dir := 1.0
				if t.atUpper[j] {
					dir = -1
				}
				t.pivot(i, j, dir, 0, false)
				break
			}
		}
	}
}

// extract recovers the original-space variable values into x, using vals
// (len ncols) as scratch for per-column values in shifted space.
func (t *tableau) extract(p *Problem, cols []varCol, vals, x []float64) {
	// Structural column values: basic from rhs, nonbasic at one bound.
	for c := range vals {
		if t.atUpper[c] {
			vals[c] = t.rng[c]
		} else {
			vals[c] = 0
		}
	}
	for i, b := range t.basis {
		if b < t.ncols {
			vals[b] = t.rhs[i]
		}
	}
	for j := range x {
		vc := cols[j]
		switch {
		case vc.neg >= 0:
			x[j] = vals[vc.col] - vals[vc.neg]
		case vc.mirror:
			x[j] = vc.shift - vals[vc.col]
		default:
			x[j] = vc.shift + vals[vc.col]
		}
		// Snap to bounds within tolerance to suppress simplex noise.
		if lo := p.lower(j); x[j] < lo {
			x[j] = lo
		}
		if ub := p.upper(j); x[j] > ub {
			x[j] = ub
		}
	}
}
