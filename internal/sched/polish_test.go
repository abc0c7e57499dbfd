package sched

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oraclePolish, oracleRetime and oracleTryInsert are polish, retime and
// tryInsert as they were when every insertion trial re-timed the whole
// sequence from t = 0, kept verbatim as the differential oracle.
func oraclePolish(ar *ilpArena, p *Problem, s *Schedule) {
	byID := ar.byIDMap(p)
	covered := ar.coveredSet()
	for _, seq := range s.Captures {
		for _, c := range seq {
			covered[c.TargetID] = true
		}
	}

	// Pass 1: earliest re-timing per follower.
	for fi := range s.Captures {
		oracleRetime(ar, p, p.Followers[fi], s.Captures[fi], byID)
	}

	// Pass 2: greedy insertion of uncovered targets, most valuable first.
	uncovered := ar.uncovered[:0]
	for _, t := range p.Targets {
		if !covered[t.ID] && t.Value > 0 {
			uncovered = append(uncovered, t)
		}
	}
	ar.uncovered = uncovered
	slices.SortFunc(uncovered, func(a, b Target) int {
		if a.Value != b.Value {
			return cmp.Compare(b.Value, a.Value)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for _, tgt := range uncovered {
		for fi := range s.Captures {
			if oracleTryInsert(ar, p, p.Followers[fi], &s.Captures[fi], fi, tgt, byID) {
				covered[tgt.ID] = true
				break
			}
		}
	}

	// Recompute value over distinct targets.
	ar.ids = appendCapturedIDs(ar.ids[:0], s)
	s.Value = sumValues(ar.ids, byID)
}

func oracleRetime(ar *ilpArena, p *Problem, f Follower, seq []Capture, byID map[int]Target) bool {
	times := growFloats(ar.times, len(seq))
	ar.times = times
	t := 0.0
	aim := f.Boresight
	for i, c := range seq {
		tgt, ok := byID[c.TargetID]
		if !ok {
			return false
		}
		w0, w1, ok := p.Window(f, tgt)
		if !ok {
			return false
		}
		arr, ok := clampArrival(p, f, aim, t, tgt.Pos, w0, w1)
		if !ok {
			return false
		}
		times[i] = arr
		t, aim = arr, tgt.Pos
	}
	for i := range seq {
		seq[i].Time = times[i]
	}
	return true
}

func oracleTryInsert(ar *ilpArena, p *Problem, f Follower, seq *[]Capture, fi int, tgt Target, byID map[int]Target) bool {
	cur := *seq
	for pos := 0; pos <= len(cur); pos++ {
		trial := ar.trial[:0]
		trial = append(trial, cur[:pos]...)
		trial = append(trial, Capture{TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos})
		trial = append(trial, cur[pos:]...)
		ar.trial = trial
		if oracleRetime(ar, p, f, trial, byID) {
			out := make([]Capture, len(trial))
			copy(out, trial)
			*seq = out
			return true
		}
	}
	return false
}

// TestPolishMatchesOracle runs polish and the oracle on random frames: 1-8
// followers, up to 60 targets (some worth nothing), and input schedules
// that cover a random subset of the targets, in window order or in a
// random order that often misses a window, so that pass 1 keeps the
// original times and every insertion trial meets an infeasible prefix.
// Some frames set a horizon that closes windows early. The captures,
// their order, every Time (bit for bit) and the Value must match.
func TestPolishMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		targets := make([]Target, 1+rng.Intn(60))
		for i := range targets {
			targets[i] = Target{
				ID:    100 + i,
				Pos:   pt(rng.Float64()*160e3-80e3, 20e3+rng.Float64()*110e3),
				Value: 0.5 + rng.Float64(),
			}
			if rng.Intn(10) == 0 {
				targets[i].Value = 0
			}
		}
		p := frameProblem(targets, 1+rng.Intn(8))
		if rng.Intn(3) == 0 {
			p.Env.HorizonS = 5 + rng.Float64()*40
		}

		in := Schedule{Captures: make([][]Capture, len(p.Followers))}
		for _, k := range rng.Perm(len(targets)) {
			if rng.Intn(3) == 0 {
				continue // left uncovered
			}
			fi := rng.Intn(len(p.Followers))
			tgt := targets[k]
			in.Captures[fi] = append(in.Captures[fi], Capture{
				TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos, Time: rng.Float64() * 30,
			})
		}
		for fi, seq := range in.Captures {
			if rng.Intn(2) == 0 {
				continue // keep the random order
			}
			f := p.Followers[fi]
			w0 := func(c Capture) float64 {
				tgt := targets[c.TargetID-100]
				t0, _, _ := p.Window(f, tgt)
				return t0
			}
			slices.SortStableFunc(seq, func(a, b Capture) int { return cmp.Compare(w0(a), w0(b)) })
		}

		clone := func(s Schedule) Schedule {
			out := Schedule{Captures: make([][]Capture, len(s.Captures))}
			for fi, seq := range s.Captures {
				out.Captures[fi] = append([]Capture(nil), seq...)
			}
			return out
		}
		got, want := clone(in), clone(in)
		polish(new(ilpArena), p, &got)
		oraclePolish(new(ilpArena), p, &want)

		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("seed %d: Value %v, oracle %v", seed, got.Value, want.Value)
		}
		for fi := range want.Captures {
			g, w := got.Captures[fi], want.Captures[fi]
			if len(g) != len(w) {
				t.Fatalf("seed %d follower %d: %d captures, oracle %d", seed, fi, len(g), len(w))
			}
			for k := range w {
				if g[k].TargetID != w[k].TargetID || g[k].Follower != w[k].Follower || g[k].Aim != w[k].Aim ||
					math.Float64bits(g[k].Time) != math.Float64bits(w[k].Time) {
					t.Fatalf("seed %d follower %d capture %d: %+v, oracle %+v", seed, fi, k, g[k], w[k])
				}
			}
		}
	}
}
