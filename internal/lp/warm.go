package lp

import "math"

// Starting-basis reuse: a Workspace that solves a stream of same-shaped
// problems (branch-and-bound node relaxations, or one scheduling model per
// simulation frame) can skip simplex phase 1 by re-installing the previous
// solve's optimal basis, provided that basis is still primal-feasible under
// the new bounds and right-hand sides. The install is one Gauss-Jordan
// refactorization -- about the cost of m pivots -- after which phase 2
// starts from a (usually near-optimal) feasible vertex instead of the
// all-slack corner phase 1 leaves behind. When the saved basis is stale
// (shape changed, numerically singular, or infeasible under the new
// bounds), the workspace falls back to the ordinary two-phase path by
// rebuilding the tableau; reuse is strictly an accelerator and never
// changes the set of solutions the simplex can reach.

const installTol = 1e-7 // pivot magnitude / primal feasibility tolerance

// InvalidateBasis discards any saved starting basis and any pending seed
// point. Callers that pool or hand off workspaces use it to make a reused
// workspace behave exactly like a fresh one (capacity aside).
func (ws *Workspace) InvalidateBasis() {
	ws.savedOK = false
	ws.seed = nil
}

// SeedPoint offers x (a feasible point of the NEXT problem solved on this
// workspace, in original variable space) as a one-shot crash-basis
// candidate. When the next solve has no applicable saved basis -- the
// first solve of a new tableau shape, typically the root relaxation of a
// fresh branch-and-bound tree -- the workspace pivots x's interior
// variables into the basis directly and starts phase 2 from x's vertex,
// skipping phase 1. A point that turns out infeasible or rank-deficient
// costs one rebuild and falls back to the cold path. The slice is not
// retained past the next solve.
func (ws *Workspace) SeedPoint(x []float64) { ws.seed = x }

// crashBasis turns the freshly built identity tableau into a basis at the
// vertex of the seed point: every variable strictly inside its bounds is
// pivoted into the basis (evicting a slack), and every variable at its
// finite upper bound is anchored there. The caller must have built with
// nartif == 0 (all-LE after normalization); rows keep their slack when no
// seed variable claims them. Returns false when the seed requires a
// configuration the elimination cannot reach (split free variables, or a
// near-singular pivot), leaving the tableau for the caller to rebuild.
func (ws *Workspace) crashBasis(p *Problem, x []float64) bool {
	t := &ws.t
	n := len(p.C)
	if len(x) != n {
		return false
	}
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		if vc.neg >= 0 {
			return false // split free variable: no single column to seed
		}
		v := x[j] - vc.shift
		if vc.mirror {
			v = vc.shift - x[j]
		}
		rng := t.rng[vc.col]
		switch {
		case v <= installTol:
			// at lower bound: nonbasic, nothing to do
		case !math.IsInf(rng, 1) && v >= rng-installTol:
			// At the upper bound: anchor and shift the basic values.
			t.atUpper[vc.col] = true
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= rng * t.a[i][vc.col]
			}
		default:
			// Strictly interior: must be basic. Claim the available row
			// with the largest pivot; rows already claimed by an earlier
			// seed variable hold a non-slack basis column.
			c := vc.col
			pr, pv := -1, installTol
			for i := 0; i < t.m; i++ {
				if t.basis[i] < t.ncols {
					continue // claimed by an earlier seed variable
				}
				if a := math.Abs(t.a[i][c]); a > pv {
					pr, pv = i, a
				}
			}
			if pr < 0 {
				return false
			}
			// rhs first, from the column before elimination rewrites it.
			t.rhs[pr] *= 1 / t.a[pr][c]
			for r := 0; r < t.m; r++ {
				if f := t.a[r][c]; r != pr && f != 0 {
					t.rhs[r] -= f * t.rhs[pr]
				}
			}
			t.eliminate(pr, c)
			t.inBasis[t.basis[pr]] = false
			t.basis[pr] = c
			t.inBasis[c] = true
			t.atUpper[c] = false
		}
	}
	return true
}

// saveBasis snapshots the tableau's basis and bound-anchoring after an
// optimal solve. Bases containing artificial columns (possible when
// evictArtificials finds no structural pivot on a degenerate row) are not
// saved: re-installing one would resurrect a column phase 2 must not use.
func (ws *Workspace) saveBasis() {
	t := &ws.t
	ws.saveBasisFrom(t.basis, t.atUpper)
}

// saveBasisFrom records a basis snapshot in the engine-independent saved
// format (column indices against the shape in ws.shp). Both cores save
// through here, which is what lets a basis saved by one engine install on
// the other.
func (ws *Workspace) saveBasisFrom(basis []int, atUpper []bool) {
	s := &ws.shp
	for i := 0; i < s.m; i++ {
		if basis[i] >= s.artbase {
			ws.savedOK = false
			return
		}
	}
	ws.savedBasis = growInts(ws.savedBasis, s.m)
	copy(ws.savedBasis, basis[:s.m])
	ws.savedAtUpper = growBools(ws.savedAtUpper, s.total)
	copy(ws.savedAtUpper, atUpper[:s.total])
	ws.savedM, ws.savedTotal, ws.savedNcols = s.m, s.total, s.ncols
	ws.savedOK = true
}

// basisShapeMatches reports whether the freshly analyzed problem has the
// same shape as the saved basis. Same shape is necessary (column indices
// keep their meaning) but not sufficient (bounds may have moved); the
// install performs the feasibility check.
func (ws *Workspace) basisShapeMatches() bool {
	s := &ws.shp
	return ws.savedOK && s.m == ws.savedM && s.total == ws.savedTotal && s.ncols == ws.savedNcols
}

// installBasis transforms the freshly built tableau (identity basis of
// slacks and artificials) into the saved basis by Gauss-Jordan elimination
// and re-anchors the saved nonbasic-at-upper columns. It returns false --
// leaving the tableau in an undefined state the caller must rebuild --
// when the saved basis is singular for the new matrix. The resulting basic
// values may violate their bounds; the caller checks primalFeasible and
// either repairs (dualRepair) or falls back to the cold path.
func (ws *Workspace) installBasis() bool {
	t := &ws.t
	m := t.m
	// Eliminate to the saved basis. Row order within the basis is free (the
	// simplex never consults original constraint identity), so partial
	// pivoting by row swap is safe.
	for i := 0; i < m; i++ {
		c := ws.savedBasis[i]
		pr, pv := -1, installTol
		for r := i; r < m; r++ {
			if a := math.Abs(t.a[r][c]); a > pv {
				pr, pv = r, a
			}
		}
		if pr < 0 {
			return false // singular for the new matrix
		}
		if pr != i {
			t.a[i], t.a[pr] = t.a[pr], t.a[i]
			t.rhs[i], t.rhs[pr] = t.rhs[pr], t.rhs[i]
		}
		// rhs first, from the column before elimination rewrites it.
		t.rhs[i] *= 1 / t.a[i][c]
		for r := 0; r < m; r++ {
			if f := t.a[r][c]; r != i && f != 0 {
				t.rhs[r] -= f * t.rhs[i]
			}
		}
		t.eliminate(i, c)
	}
	for j := 0; j < t.total; j++ {
		t.inBasis[j] = false
		t.atUpper[j] = false
	}
	for i := 0; i < m; i++ {
		t.basis[i] = ws.savedBasis[i]
		t.inBasis[t.basis[i]] = true
	}
	// Re-anchor nonbasic columns that sat at their upper bound. A column
	// whose range has since become infinite (or collapsed to a fixed zero)
	// stays at its lower bound; the feasibility check below decides whether
	// the basis survives the change.
	for j := 0; j < t.total; j++ {
		if !ws.savedAtUpper[j] || t.inBasis[j] {
			continue
		}
		r := t.rng[j]
		if math.IsInf(r, 1) || r <= 0 {
			continue
		}
		t.atUpper[j] = true
		for i := 0; i < m; i++ {
			t.rhs[i] -= r * t.a[i][j]
		}
	}
	return true
}

// primalFeasible reports whether every basic value lies inside its
// column's range.
func (t *tableau) primalFeasible() bool {
	for i := 0; i < t.m; i++ {
		v := t.rhs[i]
		if v < -installTol {
			return false
		}
		if rb := t.rng[t.basis[i]]; v > rb+installTol {
			return false
		}
	}
	return true
}

// dualRepair restores primal feasibility of an installed basis with
// bounded-variable dual-simplex pivots. An installed basis that was
// optimal for a neighboring problem (the parent branch-and-bound node, or
// the previous simulation frame) is dual feasible -- the reduced costs
// depend only on the matrix and objective, which did not change -- and
// primal infeasible in at most a few rows, so a handful of dual pivots
// reaches a feasible (usually optimal) vertex where a cold phase 2 would
// start over from the all-slack corner. Correctness does not ride on the
// pivot choices: the caller always runs the primal phase 2 afterwards,
// which verifies optimality from whatever vertex this reaches, so a wrong
// entering choice costs pivots, never answers. Returns false -- tableau
// still a valid basis, but infeasible -- when a violated row has no
// eligible entering column or the pivot budget runs out; the caller then
// rebuilds and takes the cold path, which settles feasibility exactly.
func (ws *Workspace) dualRepair(maxPivots int) bool {
	if !ws.dualRepairRun(maxPivots) {
		ws.RepairFails++
		return false
	}
	return true
}

func (ws *Workspace) dualRepairRun(maxPivots int) bool {
	t := &ws.t
	limit := t.artbase // phase-2 discipline: artificials may not enter
	red := ws.red
	for pivots := 0; pivots < maxPivots; pivots++ {
		// Most-violated basic variable: below zero or above its range.
		r, atUp, viol := -1, false, installTol
		for i := 0; i < t.m; i++ {
			v := t.rhs[i]
			if d := -v; d > viol {
				r, atUp, viol = i, false, d
			}
			if ub := t.rng[t.basis[i]]; !math.IsInf(ub, 1) {
				if d := v - ub; d > viol {
					r, atUp, viol = i, true, d
				}
			}
		}
		if r < 0 {
			return true
		}
		if pivots == 0 {
			// Price in full once; each pivot below re-prices the columns
			// it changed, and a bound flip changes none.
			t.price(t.obj, red, limit)
		}
		// Entering column: movement along its free direction must push the
		// leaving basic toward the violated bound (sign test), and among
		// the eligible the dual ratio |reduced cost| / |pivot| is minimized
		// so dual feasibility survives the pivot; ties prefer the larger
		// pivot magnitude for numerical stability.
		enter, bestRatio, bestW := -1, math.Inf(1), 0.0
		for _, j32 := range ws.price {
			j := int(j32)
			if j >= limit {
				break
			}
			if t.inBasis[j] {
				continue
			}
			dirj := 1.0
			if t.atUpper[j] {
				dirj = -1
			}
			w := dirj * t.a[r][j]
			if atUp {
				if w < eps {
					continue // must pull rhs[r] down
				}
			} else if w > -eps {
				continue // must push rhs[r] up
			}
			rr := red[j]
			if t.atUpper[j] {
				rr = -rr
			}
			ratio := -rr / math.Abs(w) // rr <= eps at a dual-feasible basis
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && math.Abs(w) > math.Abs(bestW)) {
				enter, bestRatio, bestW = j, ratio, w
			}
		}
		if enter < 0 {
			return false // unrepairable row: let the cold path decide
		}
		dir := 1.0
		if t.atUpper[enter] {
			dir = -1
		}
		// Step that lands the leaving basic exactly on its violated bound.
		var step float64
		if atUp {
			step = (t.rhs[r] - t.rng[t.basis[r]]) / (dir * t.a[r][enter])
		} else {
			step = t.rhs[r] / (dir * t.a[r][enter])
		}
		if step < 0 {
			step = 0
		}
		if rj := t.rng[enter]; step > rj {
			// The entering column hits its own opposite bound first: bound
			// flip, keep the basis, re-select on the next round.
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= rj * dir * t.a[i][enter]
			}
			t.atUpper[enter] = !t.atUpper[enter]
			t.iters++
			continue
		}
		nz := t.pivot(r, enter, dir, step, atUp)
		t.reprice(t.obj, red, limit, r, nz)
		t.iters++
	}
	return t.primalFeasible()
}
