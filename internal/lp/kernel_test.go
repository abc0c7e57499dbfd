package lp

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// oraclePrice is the pricing sweep optimize and dualRepairRun ran before
// the price kernel, kept verbatim as the differential oracle.
func oraclePrice(t *tableau, obj, red []float64, limit int) {
	cb := t.cb
	for i := 0; i < t.m; i++ {
		cb[i] = obj[t.basis[i]]
	}
	copy(red[:limit], obj[:limit])
	for i := 0; i < t.m; i++ {
		c := cb[i]
		if c == 0 {
			continue
		}
		ri := t.a[i][:limit]
		rd := red[:len(ri)]
		for j, v := range ri {
			rd[j] -= c * v
		}
	}
}

// oracleEliminate is the full-row elimination pivot, installBasis and
// crashBasis ran before the eliminate kernel, kept verbatim as the
// differential oracle.
func oracleEliminate(t *tableau, row, col int) {
	pr := t.a[row][:t.total]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i][:len(pr)]
		for j, v := range pr {
			ri[j] -= f * v
		}
	}
}

// kernelTableau allocates an m x total tableau with the state and scratch
// the kernels use, sized as materializeDense sizes it.
func kernelTableau(m, total int) *tableau {
	t := &tableau{
		m: m, total: total, ncols: total, artbase: total,
		a:        make([][]float64, m),
		rhs:      make([]float64, m),
		rng:      make([]float64, total),
		obj:      make([]float64, total),
		basis:    make([]int, m),
		inBasis:  make([]bool, total),
		atUpper:  make([]bool, total),
		cb:       make([]float64, m),
		rowIdx:   make([]int, m),
		colIdx:   make([]int32, total),
		costRows: make([]int, m),
	}
	buf := make([]float64, m*total)
	for i := range t.a {
		t.a[i] = buf[i*total : (i+1)*total]
	}
	return t
}

func (t *tableau) clone() *tableau {
	c := kernelTableau(t.m, t.total)
	c.ncols, c.artbase = t.ncols, t.artbase
	for i := range t.a {
		copy(c.a[i], t.a[i])
	}
	copy(c.rhs, t.rhs)
	copy(c.rng, t.rng)
	copy(c.obj, t.obj)
	copy(c.basis, t.basis)
	copy(c.inBasis, t.inBasis)
	copy(c.atUpper, t.atUpper)
	return c
}

// FuzzDenseKernelDifferential runs the price and eliminate kernels
// against the loops they replaced on random tableaux: a density knob from
// 5% to 100%, exact +0 and -0 entries, basic costs that are zero,
// positive and negative pivots, rows whose entering-column entry is
// exactly zero, and a pricing limit below the column count (phase 2).
// Each input prices once and then pivots up to m times in a row on both
// copies. Every reduced cost must match the oracle bit for bit; every
// tableau entry must match it bit for bit where the oracle's is nonzero
// and under == where it is zero (eliminate may leave a -0 the full-row
// sweep turns into +0; see its doc). The seed corpus runs as unit tests.
func FuzzDenseKernelDifferential(f *testing.F) {
	for _, in := range []struct {
		seed    int64
		density uint8
	}{
		{1, 0}, {2, 15}, {3, 23}, {4, 45}, {5, 95},
		{42, 7}, {-7, 30}, {987654321, 60}, {20260808, 80}, {11, 200},
	} {
		f.Add(in.seed, in.density)
	}
	negZero := math.Float64frombits(1 << 63)
	f.Fuzz(func(t *testing.T, seed int64, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		dens := 0.05 + 0.95*float64(density%96)/95 // 5% .. 100%
		m := 1 + rng.Intn(13)
		total := m + rng.Intn(40)
		entry := func() float64 {
			if rng.Float64() >= dens {
				if rng.Intn(3) == 0 {
					return negZero
				}
				return 0
			}
			switch rng.Intn(4) {
			case 0:
				return float64(rng.Intn(7) - 3) // small integers, 0 included
			case 1:
				return rng.NormFloat64() * 1e-3
			default:
				return rng.NormFloat64()
			}
		}
		want := kernelTableau(m, total)
		for i := range want.a {
			for j := range want.a[i] {
				want.a[i][j] = entry()
			}
		}
		for i, j := range rng.Perm(total)[:m] {
			want.basis[i] = j
		}
		got := want.clone()

		obj := make([]float64, total)
		for j := range obj {
			if rng.Intn(5) < 2 {
				continue // zero cost, so some rows carry no basic cost
			}
			obj[j] = rng.NormFloat64()
		}
		limit := total
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(total)
		}
		wantRed := make([]float64, total)
		gotRed := make([]float64, total)
		oraclePrice(want, obj, wantRed, limit)
		got.price(obj, gotRed, limit)
		for j := 0; j < limit; j++ {
			if math.Float64bits(gotRed[j]) != math.Float64bits(wantRed[j]) {
				t.Fatalf("red[%d] = %v (%#x), oracle %v (%#x)", j, gotRed[j],
					math.Float64bits(gotRed[j]), wantRed[j], math.Float64bits(wantRed[j]))
			}
		}

		for step := 0; step < m; step++ {
			row := rng.Intn(m)
			var cols []int
			for j, v := range want.a[row] {
				if v != 0 {
					cols = append(cols, j)
				}
			}
			if len(cols) == 0 {
				continue
			}
			col := cols[rng.Intn(len(cols))]
			oracleEliminate(want, row, col)
			got.eliminate(row, col)
			for i := range want.a {
				for j, w := range want.a[i] {
					g := got.a[i][j]
					if w == 0 && g == 0 {
						continue
					}
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("step %d pivot (%d,%d): a[%d][%d] = %v (%#x), oracle %v (%#x)",
							step, row, col, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	})
}

// FuzzDenseRepriceDifferential checks the reduced costs the dense core
// keeps current against a fresh pricing sweep (oraclePrice on a copy of
// the tableau). Each input builds a random tableau with the density knob,
// ±0 entries and zero basic costs of FuzzDenseKernelDifferential, and
// sometimes ±Inf or NaN costs and a planted subnormal entry whose pivot
// row is then scaled by 1/4, so that it underflows to 0. The tableau is
// priced once, with the phase-1 limit (every column) or a phase-2 limit
// below it, and then takes up to 2m random steps: a pivot followed by
// reprice, biased towards entering or leaving a column with a non-finite
// cost, or a bound flip, which must leave the reduced costs as they are.
// Finally dualRepairRun and optimize run on it as a Workspace. After every
// step and each run, every reduced cost below the limit must match the
// fresh sweep bit for bit where nonzero and under == where zero. The seed
// corpus runs as unit tests.
func FuzzDenseRepriceDifferential(f *testing.F) {
	for _, in := range []struct {
		seed    int64
		density uint8
	}{
		{1, 0}, {2, 15}, {3, 23}, {4, 45}, {5, 95},
		{42, 7}, {-7, 30}, {987654321, 60}, {20260808, 80}, {11, 200},
	} {
		f.Add(in.seed, in.density)
	}
	negZero := math.Float64frombits(1 << 63)
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	f.Fuzz(func(t *testing.T, seed int64, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		dens := 0.05 + 0.95*float64(density%96)/95 // 5% .. 100%
		m := 1 + rng.Intn(13)
		total := m + 2 + rng.Intn(40)
		tab := kernelTableau(m, total)
		for i := range tab.a {
			for j := range tab.a[i] {
				switch {
				case rng.Float64() >= dens:
					if rng.Intn(3) == 0 {
						tab.a[i][j] = negZero
					}
				case rng.Intn(4) == 0:
					tab.a[i][j] = float64(rng.Intn(7) - 3)
				default:
					tab.a[i][j] = rng.NormFloat64()
				}
			}
		}
		perm := rng.Perm(total)
		for i, j := range perm[:m] {
			tab.basis[i] = j
			tab.inBasis[j] = true
		}
		obj := tab.obj
		for j := range obj {
			if rng.Intn(5) >= 2 {
				obj[j] = rng.NormFloat64()
			}
		}
		limit := total
		if rng.Intn(2) == 0 {
			limit = m + 1 + rng.Intn(total-m)
		}
		// Plant a column whose only nonzero is the smallest subnormal, in a
		// row whose basic cost is at least 1 in magnitude, so its reduced
		// cost is a nonzero subnormal; pivoting that row on an entry of 4
		// scales the subnormal to 0.
		under, underRow, underCol := -1, -1, -1
		if rng.Intn(2) == 0 {
			under, underCol = perm[m], perm[m+1]
			if under >= limit || underCol >= limit {
				under = -1
			} else {
				underRow = rng.Intn(m)
				for i := range tab.a {
					tab.a[i][under] = 0
				}
				tab.a[underRow][under] = math.SmallestNonzeroFloat64
				tab.a[underRow][underCol] = 4
				obj[under] = 0
				obj[tab.basis[underRow]] = 1 + math.Abs(rng.NormFloat64())
			}
		}
		var odd []int // columns with a non-finite cost
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				j := rng.Intn(total)
				if j == under || j == underCol || (under >= 0 && j == tab.basis[underRow]) {
					continue
				}
				obj[j] = nonFinite[rng.Intn(len(nonFinite))]
				odd = append(odd, j)
			}
		}
		for j := range tab.rng {
			tab.rng[j] = math.Inf(1)
			if rng.Intn(2) == 0 {
				tab.rng[j] = 1 + float64(rng.Intn(3))
			}
		}

		check := func(stage string, red []float64) {
			t.Helper()
			want := make([]float64, total)
			oraclePrice(tab.clone(), obj, want, limit)
			for j := 0; j < limit; j++ {
				g, w := red[j], want[j]
				if g == 0 && w == 0 {
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: red[%d] = %v (%#x), fresh price %v (%#x)", stage, j,
						g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
		red := make([]float64, total)
		tab.price(obj, red, limit)
		check("price", red)

		for step := 0; step < 2*m; step++ {
			if step > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(total)
				if tab.inBasis[j] || math.IsInf(tab.rng[j], 1) {
					continue
				}
				dir := 1.0
				if tab.atUpper[j] {
					dir = -1
				}
				for i := range tab.rhs {
					tab.rhs[i] -= tab.rng[j] * dir * tab.a[i][j]
				}
				tab.atUpper[j] = !tab.atUpper[j]
				check(fmt.Sprintf("step %d flip %d", step, j), red)
				continue
			}
			row, col := rng.Intn(m), -1
			switch {
			case step == 0 && under >= 0:
				row, col = underRow, underCol
			case len(odd) > 0 && rng.Intn(2) == 0:
				j := odd[rng.Intn(len(odd))]
				for i, b := range tab.basis {
					if b == j {
						row = i // leave the non-finite column
					}
				}
				if !tab.inBasis[j] && j < limit {
					var rows []int
					for i := range tab.a {
						if tab.a[i][j] != 0 {
							rows = append(rows, i)
						}
					}
					if len(rows) > 0 {
						row, col = rows[rng.Intn(len(rows))], j // enter it
					}
				}
			}
			if col < 0 {
				var cols []int // nonbasic columns below limit, nonzero in row
				for j := 0; j < limit; j++ {
					if !tab.inBasis[j] && tab.a[row][j] != 0 {
						cols = append(cols, j)
					}
				}
				if len(cols) == 0 {
					continue
				}
				col = cols[rng.Intn(len(cols))]
			}
			nz := tab.pivot(row, col, 1, 0, false)
			tab.reprice(obj, red, limit, row, nz)
			check(fmt.Sprintf("step %d pivot (%d,%d)", step, row, col), red)
		}

		// The same state as a workspace: dual repair from a violated row,
		// then the primal loop, both with limit as the entering bound.
		tab.artbase = limit
		ws := &Workspace{t: *tab, red: red}
		for j := 0; j < total; j++ {
			ws.price = append(ws.price, int32(j))
		}
		tab = &ws.t
		for i := range tab.rhs {
			tab.rhs[i] = rng.NormFloat64()
		}
		tab.rhs[rng.Intn(m)] = -1
		ws.dualRepairRun(2*m + 4)
		check("dualRepairRun", red)
		tab.optimize(ws, obj, tab.iters+2*m+4, limit == total)
		check("optimize", red)
	})
}

// solveGolden pins one dense solve: its status, iteration count, the
// objective's bits, a digest of X under == (see xDigest), and the
// workspace's running BasisReuses and RepairFails after the solve.
type solveGolden struct {
	status      Status
	iters       int
	obj         uint64 // math.Float64bits(Objective)
	x           uint64 // xDigest(X)
	reuses      int
	repairFails int
}

// xDigest hashes X so that two vectors digest alike exactly when they are
// equal element by element under ==: -0 is folded onto +0 first, every
// other value contributes its bits.
func xDigest(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		if v == 0 {
			v = 0
		}
		bits := math.Float64bits(v)
		for k := range b {
			b[k] = byte(bits >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func goldenOf(ws *Workspace, sol Solution) solveGolden {
	return solveGolden{
		status:      sol.Status,
		iters:       sol.Iters,
		obj:         math.Float64bits(sol.Objective),
		x:           xDigest(sol.X),
		reuses:      ws.BasisReuses,
		repairFails: ws.RepairFails,
	}
}

func (g solveGolden) String() string {
	return fmt.Sprintf("{%v, %d, %#x, %#x, %d, %d}", g.status, g.iters, g.obj, g.x, g.reuses, g.repairFails)
}

// TestDenseSolveGolden pins the dense core's pivot sequence on fixed
// instances: a shard-sized scheduling LP (n = 228, m = 69), a set cover
// that runs phase 1, a basis-reuse stream whose bound tightening sends
// the saved basis through installBasis and dualRepair, and SeedPoint
// solves that start from crashBasis. Every value was recorded from the
// dense tableau before its pricing and elimination loops became the
// price and eliminate kernels, so any change to the pivots, the
// iteration counts or the bits of a result fails here.
func TestDenseSolveGolden(t *testing.T) {
	check := func(name string, got, want solveGolden) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}

	t.Run("sched_shard", func(t *testing.T) {
		p := GenSchedLP(4, 6, 10, 8, 1)
		if n, m := len(p.C), len(p.B); n != 228 || m != 69 {
			t.Fatalf("shape n=%d m=%d, want 228x69", n, m)
		}
		ws := &Workspace{Core: CoreDense}
		check("cold", goldenOf(ws, ws.Solve(p)), solveGolden{StatusOptimal, 126, 0x40371fa4e7346e6a, 0x46d7d2ad91f6bac5, 0, 0})
	})

	t.Run("cover", func(t *testing.T) {
		p := GenCoverLP(40, 60, 3, 1)
		ws := &Workspace{Core: CoreDense}
		check("cold", goldenOf(ws, ws.Solve(p)), solveGolden{StatusOptimal, 99, 0xc0313ae6dfe6525a, 0x98ce1806443fe268, 0, 0})
	})

	t.Run("reuse_stream", func(t *testing.T) {
		// A branch-and-bound-like dive. Even steps close the busiest flow
		// edge; odd steps fix one cover variable, to 0 when the last solve
		// used it and to 1 otherwise. Each leaves the installed basis
		// primal infeasible, so dualRepair pivots it back. The last step
		// also takes the fleet away: the repair fails and the cold path
		// reports the model infeasible.
		p := GenSchedLP(4, 6, 10, 8, 2)
		ne := len(p.C) - 4*6
		p.Lower = make([]float64, len(p.C))
		ws := &Workspace{Core: CoreDense, ReuseBasis: true}
		want := []solveGolden{
			{StatusOptimal, 137, 0x4036ae259a9a716c, 0x2d43762dc51667a5, 0, 0},
			{StatusOptimal, 7, 0x40362b147eae213b, 0x8f671a54e3419e18, 1, 0},
			{StatusOptimal, 16, 0x4032d1a15f2498e5, 0xc63ca409f44de165, 2, 0},
			{StatusOptimal, 3, 0x40329d460e8b5b9f, 0xec55474b0547f725, 3, 0},
			{StatusOptimal, 17, 0x402ba5495383b5bf, 0xcc0f14a22d96e345, 4, 0},
			{StatusOptimal, 5, 0x402ab4ba4ca9a997, 0xf168bd37576500c5, 5, 0},
			{StatusOptimal, 11, 0x401a24282e7bec5d, 0x8ffedf2e773b9425, 6, 0},
			{StatusInfeasible, 22, 0x0, 0xcbf29ce484222325, 6, 1},
		}
		sol := ws.Solve(p)
		check("step 0", goldenOf(ws, sol), want[0])
		for step := 1; step < len(want); step++ {
			if step%2 == 0 {
				j := 0
				for k := 1; k < ne; k++ {
					if sol.X[k] > sol.X[j] {
						j = k
					}
				}
				p.Upper[j] = 0
			} else if j := ne + (7*step)%(len(p.C)-ne); sol.X[j] > 0.5 {
				p.Upper[j] = 0
			} else {
				p.Lower[j] = 1
			}
			if step == len(want)-1 {
				p.B[len(p.B)-1] = 0
			}
			sol = ws.Solve(p)
			check(fmt.Sprintf("step %d", step), goldenOf(ws, sol), want[step])
		}
	})

	t.Run("seed_point", func(t *testing.T) {
		// Seeding the optimum crashes its basic columns in; seeding half
		// of it (still feasible, every used variable now interior)
		// crashes every used column in.
		p := GenSchedLP(4, 6, 10, 8, 3)
		cold := (&Workspace{Core: CoreDense}).Solve(p)
		if cold.Status != StatusOptimal {
			t.Fatalf("cold status %v", cold.Status)
		}
		opt := append([]float64(nil), cold.X...)
		half := make([]float64, len(opt))
		for j, v := range opt {
			half[j] = v / 2
		}
		for k, seed := range [][]float64{opt, half} {
			ws := &Workspace{Core: CoreDense}
			ws.SeedPoint(seed)
			want := []solveGolden{
				{StatusOptimal, 25, 0x40369ebcb0471360, 0xf831969da542ebc5, 1, 0},
				{StatusOptimal, 16, 0x40369ebcb0471360, 0xf831969da542ebc5, 1, 0},
			}[k]
			check(fmt.Sprintf("seed %d", k), goldenOf(ws, ws.Solve(p)), want)
		}
	})
}
