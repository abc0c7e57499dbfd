package sched

import (
	"cmp"
	"slices"

	"eagleeye/internal/geo"
)

// polish improves a feasible schedule without changing the scheduling
// algorithm's structural decisions:
//
//  1. re-time: each follower's capture sequence is shifted to its earliest
//     feasible times (optimal for a fixed order by an exchange argument),
//     recovering slack that the ILP's slot discretization leaves behind; and
//  2. insert: uncovered targets are greedily inserted into sequence
//     positions where the suffix can still be re-timed feasibly. Each trial
//     re-times only the inserted target and the suffix after it, starting
//     from the time and aim the unchanged prefix reaches; the prefix is
//     advanced one capture per failed position, and the search stops once
//     the prefix itself is infeasible (every later trial would contain it).
//     Window and Arrival are pure, so each capture gets exactly the
//     time a re-timing of the whole trial from t = 0 would give it.
//
// The result is always feasible and never worth less than the input. This
// is how the implementation bridges the gap between the paper's
// continuous-time ILP formulation (OR-Tools) and our discretized one; the
// ablation bench BenchmarkAblationPolish quantifies the step. All working
// sets come from the arena so the per-frame polish pass stays off the heap.
func polish(ar *ilpArena, p *Problem, s *Schedule) {
	byID := ar.byIDMap(p)
	covered := ar.coveredSet()
	for _, seq := range s.Captures {
		for _, c := range seq {
			covered[c.TargetID] = true
		}
	}

	// Pass 1: earliest re-timing per follower.
	for fi := range s.Captures {
		f := p.Followers[fi]
		retime(ar, p, f, s.Captures[fi], 0, f.Boresight, byID)
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
			if tryInsert(ar, p, p.Followers[fi], &s.Captures[fi], fi, tgt, byID) {
				covered[tgt.ID] = true
				break
			}
		}
	}

	// Recompute value over distinct targets.
	ar.ids = appendCapturedIDs(ar.ids[:0], s)
	s.Value = sumValues(ar.ids, byID)
}

// retime rewrites capture times to the earliest feasible schedule for the
// given order, with follower f starting at time t aimed at aim: (0,
// f.Boresight) for a whole sequence, or the state a fixed prefix leaves
// when seq is the suffix after it. It returns false (leaving seq
// untouched) if the order is infeasible, which polish treats as "keep the
// original times".
func retime(ar *ilpArena, p *Problem, f Follower, seq []Capture, t float64, aim geo.Point2, byID map[int]Target) bool {
	times := growFloats(ar.times, len(seq))
	ar.times = times
	for i, c := range seq {
		var ok bool
		if t, aim, ok = arrival(p, f, t, aim, c, byID); !ok {
			return false
		}
		times[i] = t
	}
	for i := range seq {
		seq[i].Time = times[i]
	}
	return true
}

// arrival returns the earliest time inside its window at which follower f,
// aimed at aim at time t, can capture c's target, and the target's aim
// point; ok is false when there is no such time.
func arrival(p *Problem, f Follower, t float64, aim geo.Point2, c Capture, byID map[int]Target) (float64, geo.Point2, bool) {
	tgt, ok := byID[c.TargetID]
	if !ok {
		return 0, aim, false
	}
	w0, w1, ok := p.Window(f, tgt)
	if !ok {
		return 0, aim, false
	}
	arr, ok := p.Arrival(f, aim, t, tgt.Pos, w0, w1)
	if !ok {
		return 0, aim, false
	}
	return arr, tgt.Pos, true
}

// tryInsert attempts to insert tgt into every position of seq, keeping the
// first position where the whole sequence remains feasible after earliest
// re-timing. The trial is staged in arena scratch as prefix, inserted
// capture, suffix; moving to the next position swaps the inserted capture
// past the next prefix capture and times that capture once. Only a
// successful insert copies out to a fresh slice. Returns true on success.
func tryInsert(ar *ilpArena, p *Problem, f Follower, seq *[]Capture, fi int, tgt Target, byID map[int]Target) bool {
	cur := *seq
	trial := append(ar.trial[:0], Capture{TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos})
	trial = append(trial, cur...)
	ar.trial = trial
	t, aim := 0.0, f.Boresight
	for pos := 0; ; pos++ {
		if retime(ar, p, f, trial[pos:], t, aim, byID) {
			out := make([]Capture, len(trial))
			copy(out, trial)
			*seq = out
			return true
		}
		if pos == len(cur) {
			return false
		}
		var ok bool
		if t, aim, ok = arrival(p, f, t, aim, cur[pos], byID); !ok {
			return false
		}
		trial[pos], trial[pos+1] = trial[pos+1], trial[pos]
		trial[pos].Time = t
	}
}
