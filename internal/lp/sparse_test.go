package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveCore runs one problem on a fresh workspace pinned to the given
// engine.
func solveCore(t *testing.T, p *Problem, core Core) Solution {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ws := &Workspace{Core: core}
	return ws.Solve(p)
}

// requireAgree solves p on both cores and fails unless statuses match and
// optimal objectives agree to 1e-6. Returns the sparse solution.
func requireAgree(t *testing.T, p *Problem) Solution {
	t.Helper()
	d := solveCore(t, p, CoreDense)
	s := solveCore(t, p, CoreSparse)
	if d.Status != s.Status {
		t.Fatalf("status: dense=%v sparse=%v", d.Status, s.Status)
	}
	if d.Status == StatusOptimal {
		tol := 1e-6 * (1 + math.Abs(d.Objective))
		if math.Abs(d.Objective-s.Objective) > tol {
			t.Fatalf("objective: dense=%v sparse=%v", d.Objective, s.Objective)
		}
	}
	return s
}

func TestSparseMatchesDenseSmall(t *testing.T) {
	probs := []*Problem{
		{ // LE-only vertex
			C:      []float64{3, 2},
			A:      [][]float64{{1, 1}, {1, 3}},
			B:      []float64{4, 6},
			Senses: []Sense{LE, LE},
		},
		{ // GE + EQ: phase 1 and artificial eviction
			C:      []float64{1, 2},
			A:      [][]float64{{1, 1}, {0, 1}},
			B:      []float64{3, 1},
			Senses: []Sense{EQ, GE},
		},
		{ // finite upper bounds: bound flips
			C:      []float64{1, 1, 1},
			A:      [][]float64{{1, 1, 1}},
			B:      []float64{10},
			Senses: []Sense{LE},
			Upper:  []float64{2, 3, math.Inf(1)},
		},
		{ // mirrored variable: free below, finite above
			C:      []float64{-1, 2},
			A:      [][]float64{{1, 1}, {-1, 1}},
			B:      []float64{4, 2},
			Senses: []Sense{LE, LE},
			Lower:  []float64{math.Inf(-1), 0},
			Upper:  []float64{3, math.Inf(1)},
		},
		{ // split free variable
			C:      []float64{1, -2},
			A:      [][]float64{{1, 1}, {1, -1}},
			B:      []float64{5, 1},
			Senses: []Sense{EQ, GE},
			Lower:  []float64{math.Inf(-1), 0},
		},
		{ // infeasible
			C:      []float64{1},
			A:      [][]float64{{1}, {1}},
			B:      []float64{1, 3},
			Senses: []Sense{LE, GE},
		},
		{ // unbounded
			C:      []float64{1, 0},
			A:      [][]float64{{0, 1}},
			B:      []float64{1},
			Senses: []Sense{LE},
		},
		{ // negative RHS on an LE row (row sign normalization)
			C:      []float64{-1, -1},
			A:      [][]float64{{-1, -1}, {1, 0}},
			B:      []float64{-2, 5},
			Senses: []Sense{LE, LE},
		},
	}
	for i, p := range probs {
		s := requireAgree(t, p)
		_ = s
		_ = i
	}
}

// TestSparseCSREquivalence feeds the same model in dense-row and CSR form
// to both engines; all four runs must land on one objective.
func TestSparseCSREquivalence(t *testing.T) {
	dense := &Problem{
		C:      []float64{2, 3, 1, 0.5},
		A:      [][]float64{{1, 2, 0, 1}, {0, 1, 1, 0}, {3, 0, 0, 1}},
		B:      []float64{8, 5, 9},
		Senses: []Sense{LE, LE, LE},
		Upper:  []float64{4, 4, 4, 4},
	}
	csr := &Problem{C: dense.C, Upper: dense.Upper}
	csr.ResetSparseRows()
	csr.Coef(0, 1)
	csr.Coef(1, 2)
	csr.Coef(3, 1)
	csr.EndRow(LE, 8)
	csr.Coef(1, 1)
	csr.Coef(2, 1)
	csr.EndRow(LE, 5)
	csr.Coef(0, 3)
	csr.Coef(3, 1)
	csr.EndRow(LE, 9)

	want := solveCore(t, dense, CoreDense)
	for _, p := range []*Problem{dense, csr} {
		for _, core := range []Core{CoreDense, CoreSparse} {
			got := solveCore(t, p, core)
			if got.Status != StatusOptimal {
				t.Fatalf("core %d status %v", core, got.Status)
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9 {
				t.Fatalf("core %d objective %v, want %v", core, got.Objective, want.Objective)
			}
		}
	}
}

// bealeProblem is Beale's classical cycling example (stated as a max).
// Dantzig pricing with textbook tie-breaking cycles forever on it; the
// optimum is 1/20 at x = (1/25, 0, 1, 0).
func bealeProblem() *Problem {
	return &Problem{
		C: []float64{0.75, -150, 0.02, -6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		B:      []float64{0, 0, 1},
		Senses: []Sense{LE, LE, LE},
	}
}

// TestSparseCycling solves the cycling-prone LP on the sparse core, both
// with default pricing (the Bland fallback must engage if Dantzig stalls)
// and with Bland's rule forced from the first iteration.
func TestSparseCycling(t *testing.T) {
	for _, override := range []int{0, 1} {
		ws := &Workspace{Core: CoreSparse}
		ws.blandOverride = override
		sol := ws.Solve(bealeProblem())
		if sol.Status != StatusOptimal {
			t.Fatalf("blandOverride=%d: status %v", override, sol.Status)
		}
		if math.Abs(sol.Objective-0.05) > 1e-9 {
			t.Fatalf("blandOverride=%d: objective %v, want 0.05", override, sol.Objective)
		}
	}
}

// TestSparseRefactorEveryPivot forces a full basis refactorization after
// every single pivot and checks the answer still matches the dense core
// on a nontrivial random instance -- the strongest exercise of
// factorizeBasis' pivot ordering and of computeXB.
func TestSparseRefactorEveryPivot(t *testing.T) {
	p := GenSchedLP(12, 4, 3, 3, 7)
	want := solveCore(t, p, CoreDense)
	if want.Status != StatusOptimal {
		t.Fatalf("dense status %v", want.Status)
	}
	ws := &Workspace{Core: CoreSparse, RefactorEvery: 1}
	got := ws.Solve(p)
	if got.Status != StatusOptimal {
		t.Fatalf("sparse status %v", got.Status)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("objective %v, want %v", got.Objective, want.Objective)
	}
	if ws.Refactorizations == 0 {
		t.Fatal("RefactorEvery=1 produced no refactorizations")
	}
}

// TestSparseGenAgreement cross-checks the two engines on mid-sized
// instances of both generator shapes (all-LE flow, GE set cover).
func TestSparseGenAgreement(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		requireAgree(t, GenSchedLP(25, 5, 4, 3, seed))
		requireAgree(t, GenCoverLP(60, 90, 4, seed))
	}
}

// TestFixedColumnPricing checks that variables fixed by their bounds are
// excluded from the pricing index on both engines and still extract at
// their fixed value.
func TestFixedColumnPricing(t *testing.T) {
	p := &Problem{
		C:      []float64{5, 1, 1},
		A:      [][]float64{{1, 1, 0}, {1, 0, 1}},
		B:      []float64{6, 7},
		Senses: []Sense{LE, LE},
		Lower:  []float64{2, 0, 0},
		Upper:  []float64{2, math.Inf(1), math.Inf(1)}, // x0 fixed at 2
	}
	for _, core := range []Core{CoreDense, CoreSparse} {
		ws := &Workspace{Core: core}
		sol := ws.Solve(p)
		if sol.Status != StatusOptimal {
			t.Fatalf("core %d: status %v", core, sol.Status)
		}
		if math.Abs(sol.X[0]-2) > 1e-9 {
			t.Fatalf("core %d: fixed variable moved: %v", core, sol.X)
		}
		// max 5*2 + x1 + x2 st x1 <= 4, x2 <= 5.
		if math.Abs(sol.Objective-19) > 1e-9 {
			t.Fatalf("core %d: objective %v, want 19", core, sol.Objective)
		}
		fixed := ws.cols[0].col
		if !ws.fixedCol[fixed] {
			t.Fatalf("core %d: fixedCol not set for column %d", core, fixed)
		}
		for _, j := range ws.price {
			if int(j) == fixed {
				t.Fatalf("core %d: fixed column %d still in pricing index", core, fixed)
			}
		}
	}
}

// TestWarmColdSparseResolve checks basis reuse on the sparse core: a
// same-shaped re-solve must skip phase 1 (BasisReuses == 1), reproduce
// the cold solution exactly, and a perturbed-RHS warm solve must match a
// cold solve of the perturbed problem.
func TestWarmColdSparseResolve(t *testing.T) {
	p := GenSchedLP(10, 4, 3, 2, 11)
	ws := &Workspace{Core: CoreSparse, ReuseBasis: true}
	cold := ws.Solve(p)
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	coldObj := cold.Objective
	warm := ws.Solve(p)
	if ws.BasisReuses != 1 {
		t.Fatalf("BasisReuses = %d, want 1", ws.BasisReuses)
	}
	if warm.Status != StatusOptimal || math.Abs(warm.Objective-coldObj) > 1e-9 {
		t.Fatalf("warm re-solve: status %v objective %v, want %v", warm.Status, warm.Objective, coldObj)
	}
	if warm.Iters >= cold.Iters {
		t.Fatalf("warm iters %d not below cold %d", warm.Iters, cold.Iters)
	}

	// Perturb the right-hand sides and compare warm against cold.
	rng := rand.New(rand.NewSource(99))
	for i := range p.B {
		if p.B[i] >= 1 {
			p.B[i] += 0.1 * rng.Float64()
		}
	}
	warm2 := ws.Solve(p)
	coldWS := &Workspace{Core: CoreSparse}
	cold2 := coldWS.Solve(p)
	if warm2.Status != cold2.Status {
		t.Fatalf("perturbed: warm %v cold %v", warm2.Status, cold2.Status)
	}
	if math.Abs(warm2.Objective-cold2.Objective) > 1e-6*(1+math.Abs(cold2.Objective)) {
		t.Fatalf("perturbed objective: warm %v cold %v", warm2.Objective, cold2.Objective)
	}
}

// TestWarmColdSparseCrossCore checks saved-basis portability: a basis
// saved by one engine must install on the other (same column numbering)
// and skip phase 1.
func TestWarmColdSparseCrossCore(t *testing.T) {
	p := GenSchedLP(8, 3, 3, 2, 5)
	ws := &Workspace{Core: CoreDense, ReuseBasis: true}
	d := ws.Solve(p)
	if d.Status != StatusOptimal {
		t.Fatalf("dense status %v", d.Status)
	}
	ws.Core = CoreSparse
	s := ws.Solve(p)
	if ws.BasisReuses != 1 {
		t.Fatalf("dense->sparse BasisReuses = %d, want 1", ws.BasisReuses)
	}
	if s.Status != StatusOptimal || math.Abs(s.Objective-d.Objective) > 1e-9 {
		t.Fatalf("dense->sparse: %v %v, want %v", s.Status, s.Objective, d.Objective)
	}
	ws.Core = CoreDense
	d2 := ws.Solve(p)
	if ws.BasisReuses != 2 {
		t.Fatalf("sparse->dense BasisReuses = %d, want 2", ws.BasisReuses)
	}
	if d2.Status != StatusOptimal || math.Abs(d2.Objective-d.Objective) > 1e-9 {
		t.Fatalf("sparse->dense: %v %v, want %v", d2.Status, d2.Objective, d.Objective)
	}
}

// TestSparseSeedPoint checks the sparse crash start: seeding the known
// optimum of an all-LE model must be accepted (BasisReuses == 1) and
// reproduce the cold objective.
func TestSparseSeedPoint(t *testing.T) {
	p := GenSchedLP(10, 3, 3, 2, 21)
	cold := solveCore(t, p, CoreSparse)
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	seed := append([]float64(nil), cold.X...)
	ws := &Workspace{Core: CoreSparse, ReuseBasis: true}
	ws.SeedPoint(seed)
	sol := ws.Solve(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("seeded status %v", sol.Status)
	}
	if ws.BasisReuses != 1 {
		t.Fatalf("seeded BasisReuses = %d, want 1", ws.BasisReuses)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("seeded objective %v, cold %v", sol.Objective, cold.Objective)
	}
}

// TestSparseCountersAndAuto checks the factorization counters tick and
// the CoreAuto crossover picks the dense engine at seed scale.
func TestSparseCountersAndAuto(t *testing.T) {
	p := GenSchedLP(10, 4, 3, 2, 31)
	ws := &Workspace{Core: CoreSparse}
	if sol := ws.Solve(p); sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if ws.Factorizations == 0 {
		t.Fatal("no factorizations recorded")
	}
	auto := &Workspace{}
	if auto.useSparse(p) {
		t.Fatalf("CoreAuto chose sparse for n+m=%d < %d", len(p.C)+len(p.B), sparseCrossover)
	}
	big := &Problem{C: make([]float64, sparseCrossover)}
	if !auto.useSparse(big) {
		t.Fatal("CoreAuto chose dense above the crossover")
	}
}

// BenchmarkDenseSchedShard times the dense core on a shard-sized
// scheduling LP (n = 228, m = 69, 126 iterations from the all-slack
// basis): the size every frame-dense shard solve and simulator solve
// runs at, below the sparseCrossover.
func BenchmarkDenseSchedShard(b *testing.B) {
	p := GenSchedLP(4, 6, 10, 8, 1)
	ws := &Workspace{Core: CoreDense}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := ws.Solve(p); sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkSparseSchedShaped times the sparse core on a large
// sched-shaped instance (~8.4k vars); the dense tableau at this size
// would allocate a ~700MB tableau, so only the sparse engine runs here
// (cmd/benchlp measures the dense/sparse ratio at sizes the dense core
// can still stomach).
func BenchmarkSparseSchedShaped(b *testing.B) {
	p := GenSchedLP(400, 6, 3, 8, 1)
	ws := &Workspace{Core: CoreSparse}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := ws.Solve(p); sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
