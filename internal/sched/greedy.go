package sched

import (
	"math"
	"sort"
)

// Greedy is the baseline scheduler of §4.3: each follower repeatedly points
// at the nearest (earliest reachable) unimaged target until nothing more is
// feasible. The paper reports it achieves 4.3-14.4% less coverage than the
// ILP scheduler.
type Greedy struct{}

// Name implements Scheduler.
func (Greedy) Name() string { return "greedy" }

// Schedule implements Scheduler.
func (Greedy) Schedule(p *Problem) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	imaged := make(map[int]bool, len(p.Targets))
	out := Schedule{Captures: make([][]Capture, len(p.Followers))}
	nodes := 0

	// Followers run in input order; within a group they trail the leader at
	// increasing distances, so earlier indices see targets first.
	for fi, f := range p.Followers {
		t := 0.0
		aim := f.Boresight
		for {
			bestID := -1
			bestTime := math.Inf(1)
			var bestTarget Target
			for _, tgt := range p.Targets {
				if imaged[tgt.ID] || tgt.Value <= 0 {
					continue
				}
				w0, w1, ok := p.Window(f, tgt)
				if !ok || w1 < t {
					continue
				}
				nodes++
				arr, ok := p.Arrival(f, aim, t, tgt.Pos, w0, w1)
				if !ok {
					continue
				}
				// "Nearest" = reachable soonest; ties broken by ID for
				// determinism.
				if arr < bestTime-1e-12 || (math.Abs(arr-bestTime) <= 1e-12 && tgt.ID < bestID) {
					bestTime = arr
					bestID = tgt.ID
					bestTarget = tgt
				}
			}
			if bestID < 0 {
				break
			}
			imaged[bestID] = true
			out.Captures[fi] = append(out.Captures[fi], Capture{
				TargetID: bestID,
				Time:     bestTime,
				Follower: fi,
				Aim:      bestTarget.Pos,
			})
			t = bestTime
			aim = bestTarget.Pos
		}
	}

	byID := targetByID(p)
	ids := out.CoveredIDs()
	sort.Ints(ids)
	for _, id := range ids {
		out.Value += byID[id].Value
	}
	out.SolveStats = Stats{Algorithm: "greedy", Nodes: nodes, Optimal: false}
	return out, nil
}
