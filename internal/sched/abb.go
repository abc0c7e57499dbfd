package sched

import (
	"time"

	"eagleeye/internal/geo"
)

// ABB is the anytime branch-and-bound scheduler representing prior work
// (Chu et al. [27], discussed in §2.3): an exact depth-first search over
// capture sequences with an optimistic value bound. It matches or beats the
// ILP on small frames but its runtime grows exponentially with the target
// count -- the paper measures >15 s at just 19 targets -- which is the
// motivation for EagleEye's ILP formulation.
type ABB struct {
	// TimeLimit bounds the search; when it expires the best schedule found
	// so far is returned (the "anytime" property). 0 means 15 s.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored sequence nodes; 0 means 5e6.
	MaxNodes int
}

// Name implements Scheduler.
func (ABB) Name() string { return "abb" }

// abbSearch is the per-follower search state.
type abbSearch struct {
	p       *Problem
	f       Follower
	fi      int
	targets []Target
	windows [][2]float64

	deadline  time.Time
	maxNodes  int
	nodes     int
	truncated bool

	seq       []Capture // current partial sequence (DFS stack)
	bestSeq   []Capture
	bestValue float64
}

// Schedule implements Scheduler. Followers are scheduled sequentially, each
// over the targets the previous followers did not take (the bi-satellite
// system of [27] has a single follower, making this exact for N=1).
func (a ABB) Schedule(p *Problem) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	limit := a.TimeLimit
	if limit == 0 {
		limit = 15 * time.Second
	}
	maxNodes := a.MaxNodes
	if maxNodes == 0 {
		maxNodes = 5_000_000
	}
	deadline := time.Now().Add(limit)

	out := Schedule{Captures: make([][]Capture, len(p.Followers))}
	taken := make(map[int]bool)
	totalNodes := 0
	truncated := false
	for fi, f := range p.Followers {
		var avail []Target
		var windows [][2]float64
		for _, tgt := range p.Targets {
			if taken[tgt.ID] || tgt.Value <= 0 {
				continue
			}
			w0, w1, ok := p.Window(f, tgt)
			if !ok {
				continue
			}
			avail = append(avail, tgt)
			windows = append(windows, [2]float64{w0, w1})
		}
		s := &abbSearch{
			p: p, f: f, fi: fi,
			targets: avail, windows: windows,
			deadline: deadline, maxNodes: maxNodes,
		}
		captured := make([]bool, len(avail))
		s.dfs(0, f.Boresight, 0, captured, remainingValue(avail))
		out.Captures[fi] = s.bestSeq
		for _, c := range s.bestSeq {
			taken[c.TargetID] = true
		}
		totalNodes += s.nodes
		truncated = truncated || s.truncated
	}

	byID := targetByID(p)
	for _, id := range out.CoveredIDs() {
		out.Value += byID[id].Value
	}
	out.SolveStats = Stats{Algorithm: "abb", Nodes: totalNodes, Optimal: !truncated}
	return out, nil
}

func remainingValue(ts []Target) float64 {
	v := 0.0
	for _, t := range ts {
		v += t.Value
	}
	return v
}

// dfs explores extensions of the current sequence. t/aim are the follower's
// kinematic state; value the accumulated value; captured marks taken
// targets; optimism the total value of uncaptured targets (upper bound).
func (s *abbSearch) dfs(t float64, aim geo.Point2, value float64, captured []bool, optimism float64) {
	s.nodes++
	if value > s.bestValue {
		s.bestValue = value
		s.bestSeq = append([]Capture(nil), s.seq...)
	}
	if s.nodes >= s.maxNodes || (s.nodes%1024 == 0 && time.Now().After(s.deadline)) {
		s.truncated = true
		return
	}
	// Bound: even capturing every remaining target cannot beat the best.
	if value+optimism <= s.bestValue+1e-12 {
		return
	}
	for i, tgt := range s.targets {
		if captured[i] {
			continue
		}
		w := s.windows[i]
		if w[1] < t {
			continue
		}
		arr, ok := s.p.Arrival(s.f, aim, t, tgt.Pos, w[0], w[1])
		if !ok {
			continue
		}
		captured[i] = true
		s.seq = append(s.seq, Capture{TargetID: tgt.ID, Time: arr, Follower: s.fi, Aim: tgt.Pos})
		s.dfs(arr, tgt.Pos, value+tgt.Value, captured, optimism-tgt.Value)
		s.seq = s.seq[:len(s.seq)-1]
		captured[i] = false
		if s.truncated {
			return
		}
	}
}
