package sched

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/adacs"
	"eagleeye/internal/geo"
)

func pt(x, y float64) geo.Point2 { return geo.Point2{X: x, Y: y} }

// paperEnv returns the §5.3 environment: 475 km, 7.3 km/s, 11 deg, 3 deg/s.
func paperEnv() Env {
	return Env{
		AltitudeM:      475e3,
		GroundSpeedMS:  7300,
		MaxOffNadirDeg: 11,
		Slew:           adacs.PaperSlew(),
	}
}

// frameProblem builds a problem with one follower approaching a frame of
// targets located 40-140 km ahead.
func frameProblem(targets []Target, nFollowers int) *Problem {
	p := &Problem{Env: paperEnv(), Targets: targets}
	for i := 0; i < nFollowers; i++ {
		// Followers trail at 100 km spacing; all south of the frame.
		sub := pt(0, -float64(i)*100e3)
		p.Followers = append(p.Followers, Follower{SubPoint: sub, Boresight: sub})
	}
	return p
}

func mkTargets(ps []geo.Point2, val float64) []Target {
	out := make([]Target, len(ps))
	for i, q := range ps {
		out[i] = Target{ID: i + 1, Pos: q, Value: val}
	}
	return out
}

func TestValidateProblem(t *testing.T) {
	p := frameProblem(mkTargets([]geo.Point2{pt(0, 50e3)}, 1), 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p2 := frameProblem(nil, 0)
	if err := p2.Validate(); err == nil {
		t.Error("no followers accepted")
	}
	p3 := frameProblem([]Target{{ID: 1}, {ID: 1}}, 1)
	if err := p3.Validate(); err == nil {
		t.Error("duplicate ids accepted")
	}
	p4 := frameProblem([]Target{{ID: 1, Value: -2}}, 1)
	if err := p4.Validate(); err == nil {
		t.Error("negative value accepted")
	}
	p5 := frameProblem(nil, 1)
	p5.Env.GroundSpeedMS = 0
	if err := p5.Validate(); err == nil {
		t.Error("zero ground speed accepted")
	}
}

func TestWindowClampsPast(t *testing.T) {
	// 150 km behind: beyond the 92 km reach cone looking backward, and the
	// whole geometric window lies in the past.
	p := frameProblem(mkTargets([]geo.Point2{pt(0, -150e3)}, 1), 1)
	// Target behind the follower: window entirely in the past.
	if _, _, ok := p.Window(p.Followers[0], p.Targets[0]); ok {
		t.Error("past target got a window")
	}
	// Target ahead: window starts at >= 0.
	p2 := frameProblem(mkTargets([]geo.Point2{pt(0, 50e3)}, 1), 1)
	w0, w1, ok := p2.Window(p2.Followers[0], p2.Targets[0])
	if !ok || w0 < 0 || w1 <= w0 {
		t.Errorf("window = [%v, %v] ok=%v", w0, w1, ok)
	}
}

func TestWindowHorizon(t *testing.T) {
	p := frameProblem(mkTargets([]geo.Point2{pt(0, 50e3)}, 1), 1)
	p.Env.HorizonS = 5
	_, w1, ok := p.Window(p.Followers[0], p.Targets[0])
	if !ok {
		t.Fatal("window vanished")
	}
	if w1 > 5 {
		t.Errorf("horizon not applied: w1 = %v", w1)
	}
	// A target 150 km ahead only enters the reach cone after ~8 s; a 1 s
	// horizon leaves no feasible time.
	p2 := frameProblem(mkTargets([]geo.Point2{pt(0, 150e3)}, 1), 1)
	p2.Env.HorizonS = 1
	if _, _, ok := p2.Window(p2.Followers[0], p2.Targets[0]); ok {
		t.Error("window should be empty under tight horizon")
	}
}

func allSchedulers() []Scheduler {
	return []Scheduler{ILP{}, Greedy{}, ABB{}}
}

func TestEmptyProblemAllSchedulers(t *testing.T) {
	for _, s := range allSchedulers() {
		p := frameProblem(nil, 1)
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out.NumCaptures() != 0 || out.Value != 0 {
			t.Errorf("%s: nonempty schedule for empty problem", s.Name())
		}
		if err := ValidateSchedule(p, &out); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestSingleTargetAllSchedulers(t *testing.T) {
	for _, s := range allSchedulers() {
		p := frameProblem(mkTargets([]geo.Point2{pt(3e3, 60e3)}, 2), 1)
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(out.CoveredIDs()) != 1 {
			t.Errorf("%s: covered %v, want the single target", s.Name(), out.CoveredIDs())
		}
		if math.Abs(out.Value-2) > 1e-9 {
			t.Errorf("%s: value = %v, want 2", s.Name(), out.Value)
		}
		if err := ValidateSchedule(p, &out); err != nil {
			t.Errorf("%s: invalid schedule: %v", s.Name(), err)
		}
	}
}

func TestFewTargetsAllCaptured(t *testing.T) {
	// Well-separated targets along track: everything is capturable (the
	// paper's Fig. 14a: one follower covers all of <10 targets).
	pts := []geo.Point2{
		pt(-3e3, 45e3), pt(2e3, 60e3), pt(-1e3, 75e3), pt(4e3, 90e3), pt(0, 105e3),
	}
	for _, s := range allSchedulers() {
		p := frameProblem(mkTargets(pts, 1), 1)
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got := len(out.CoveredIDs()); got != len(pts) {
			t.Errorf("%s: covered %d of %d", s.Name(), got, len(pts))
		}
		if err := ValidateSchedule(p, &out); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestUnreachableTargetIgnored(t *testing.T) {
	pts := []geo.Point2{pt(0, 50e3), pt(200e3, 50e3)} // second far off-track
	for _, s := range allSchedulers() {
		p := frameProblem(mkTargets(pts, 1), 1)
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, id := range out.CoveredIDs() {
			if id == 2 {
				t.Errorf("%s: captured unreachable target", s.Name())
			}
		}
		if err := ValidateSchedule(p, &out); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestZeroValueTargetSkipped(t *testing.T) {
	targets := []Target{
		{ID: 1, Pos: pt(0, 50e3), Value: 0},
		{ID: 2, Pos: pt(0, 70e3), Value: 1},
	}
	for _, s := range allSchedulers() {
		p := frameProblem(targets, 1)
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, id := range out.CoveredIDs() {
			if id == 1 {
				t.Errorf("%s: captured zero-value target", s.Name())
			}
		}
	}
}

// seqValue evaluates the best achievable value for a fixed capture order by
// scheduling each capture at its earliest feasible time (optimal for a
// fixed order by an exchange argument). Returns -1 if infeasible.
func seqValue(p *Problem, f Follower, order []int) float64 {
	t := 0.0
	aim := f.Boresight
	val := 0.0
	for _, ti := range order {
		tgt := p.Targets[ti]
		w0, w1, ok := p.Window(f, tgt)
		if !ok {
			return -1
		}
		arr, ok := clampArrival(p, f, aim, t, tgt.Pos, w0, w1)
		if !ok {
			return -1
		}
		val += tgt.Value
		t, aim = arr, tgt.Pos
	}
	return val
}

// clampArrival is how the schedulers timed a capture before
// Problem.Arrival: the unbounded Eq. 1 solve from tFrom, clamped up to w0
// and rejected past w1. The oracles here keep it.
func clampArrival(p *Problem, f Follower, from geo.Point2, tFrom float64, to geo.Point2, w0, w1 float64) (float64, bool) {
	arr := tFrom + adacs.ActuationTimeS(p.Env.Slew, p.subPointAt(f, tFrom), from, to, p.Env.GroundSpeedMS, p.Env.AltitudeM)
	if arr < w0 {
		arr = w0
	}
	if arr > w1 {
		return 0, false
	}
	return arr, true
}

// bruteBest enumerates all subsets and orders for a single follower.
func bruteBest(p *Problem) float64 {
	n := len(p.Targets)
	best := 0.0
	idx := make([]int, 0, n)
	var rec func(used uint32, order []int)
	rec = func(used uint32, order []int) {
		if v := seqValue(p, p.Followers[0], order); v > best {
			best = v
		}
		for i := 0; i < n; i++ {
			if used&(1<<i) != 0 {
				continue
			}
			rec(used|1<<i, append(order, i))
		}
	}
	rec(0, idx)
	return best
}

func TestABBMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		pts := make([]geo.Point2, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*100e3-50e3, 40e3+rng.Float64()*80e3)
		}
		targets := make([]Target, n)
		for i := range targets {
			targets[i] = Target{ID: i + 1, Pos: pts[i], Value: 1 + float64(rng.Intn(5))}
		}
		p := frameProblem(targets, 1)
		want := bruteBest(p)
		out, err := ABB{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.Value-want) > 1e-9 {
			t.Errorf("trial %d: ABB value %v, brute force %v", trial, out.Value, want)
		}
		if !out.SolveStats.Optimal {
			t.Errorf("trial %d: ABB not optimal on tiny instance", trial)
		}
	}
}

func TestILPNearBruteForce(t *testing.T) {
	// The ILP discretizes capture times, so it may be slightly below the
	// continuous-time optimum, but must reach at least 90% of it on small
	// instances and must never exceed it.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(4)
		targets := make([]Target, n)
		for i := range targets {
			targets[i] = Target{
				ID:    i + 1,
				Pos:   pt(rng.Float64()*80e3-40e3, 40e3+rng.Float64()*80e3),
				Value: 1 + float64(rng.Intn(5)),
			}
		}
		p := frameProblem(targets, 1)
		want := bruteBest(p)
		out, err := ILP{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Value > want+1e-6 {
			t.Errorf("trial %d: ILP %v exceeds continuous optimum %v", trial, out.Value, want)
		}
		if out.Value < 0.9*want-1e-9 {
			t.Errorf("trial %d: ILP %v below 90%% of optimum %v", trial, out.Value, want)
		}
		if err := ValidateSchedule(p, &out); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestILPAtLeastGreedyTypically(t *testing.T) {
	// Across random instances the ILP must win or tie on average (the
	// paper: ILP is 4.3-14.4% better); individual ties are fine.
	rng := rand.New(rand.NewSource(31))
	var ilpSum, greedySum float64
	for trial := 0; trial < 12; trial++ {
		n := 6 + rng.Intn(10)
		targets := make([]Target, n)
		for i := range targets {
			targets[i] = Target{
				ID:    i + 1,
				Pos:   pt(rng.Float64()*120e3-60e3, 30e3+rng.Float64()*100e3),
				Value: 1 + rng.Float64()*4,
			}
		}
		p := frameProblem(targets, 1)
		ilpOut, err := ILP{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		gOut, err := Greedy{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateSchedule(p, &ilpOut); err != nil {
			t.Fatalf("trial %d ilp: %v", trial, err)
		}
		if err := ValidateSchedule(p, &gOut); err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		ilpSum += ilpOut.Value
		greedySum += gOut.Value
	}
	if ilpSum < greedySum*0.98 {
		t.Errorf("ILP total %v well below greedy total %v", ilpSum, greedySum)
	}
}

func TestMultiFollowerCoversMoreWhenDense(t *testing.T) {
	// A dense cross-track line of targets: one follower cannot sweep them
	// all, three followers capture strictly more.
	rng := rand.New(rand.NewSource(41))
	var targets []Target
	for i := 0; i < 24; i++ {
		targets = append(targets, Target{
			ID:    i + 1,
			Pos:   pt(rng.Float64()*160e3-80e3, 40e3+rng.Float64()*30e3),
			Value: 1,
		})
	}
	p1 := frameProblem(targets, 1)
	p3 := frameProblem(targets, 3)
	out1, err := ILP{}.Schedule(p1)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := ILP{}.Schedule(p3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(p3, &out3); err != nil {
		t.Fatal(err)
	}
	if out3.Value <= out1.Value {
		t.Errorf("3 followers (%v) not better than 1 (%v) on dense frame", out3.Value, out1.Value)
	}
}

func TestFasterSlewCoversMore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var targets []Target
	for i := 0; i < 20; i++ {
		targets = append(targets, Target{
			ID:    i + 1,
			Pos:   pt(rng.Float64()*160e3-80e3, 35e3+rng.Float64()*60e3),
			Value: 1,
		})
	}
	slow := frameProblem(targets, 1)
	slow.Env.Slew = adacs.SlewModel{RateDegS: 1, OverheadS: 0.67}
	fast := frameProblem(targets, 1)
	fast.Env.Slew = adacs.SlewModel{RateDegS: 10, OverheadS: 1.11}
	outSlow, err := ILP{}.Schedule(slow)
	if err != nil {
		t.Fatal(err)
	}
	outFast, err := ILP{}.Schedule(fast)
	if err != nil {
		t.Fatal(err)
	}
	if outFast.Value < outSlow.Value {
		t.Errorf("fast slew (%v) worse than slow slew (%v)", outFast.Value, outSlow.Value)
	}
}

func TestValueDedupAcrossFollowers(t *testing.T) {
	// Two followers, one high-value target: value counted once.
	targets := []Target{{ID: 7, Pos: pt(0, 60e3), Value: 10}}
	p := frameProblem(targets, 2)
	out, err := ILP{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 10 {
		t.Errorf("value = %v, want 10 (dedup)", out.Value)
	}
}

func TestValidateScheduleCatchesViolations(t *testing.T) {
	p := frameProblem(mkTargets([]geo.Point2{pt(0, 60e3), pt(80e3, 60e3)}, 1), 1)
	// Unknown target.
	bad := Schedule{Captures: [][]Capture{{{TargetID: 99, Time: 5, Aim: pt(0, 60e3)}}}}
	if err := ValidateSchedule(p, &bad); err == nil {
		t.Error("unknown target accepted")
	}
	// Off-nadir violation: capture target 1 immediately (still 60 km ahead).
	bad = Schedule{Captures: [][]Capture{{{TargetID: 1, Time: 0, Aim: pt(0, 60e3)}}}, Value: 1}
	if err := ValidateSchedule(p, &bad); err == nil {
		t.Error("off-nadir violation accepted")
	}
	// Actuation violation: jump between far-apart targets instantly.
	t1 := 60e3 / 7300.0
	bad = Schedule{Captures: [][]Capture{{
		{TargetID: 1, Time: t1, Aim: pt(0, 60e3)},
		{TargetID: 2, Time: t1 + 0.01, Aim: pt(80e3, 60e3)},
	}}, Value: 2}
	if err := ValidateSchedule(p, &bad); err == nil {
		t.Error("actuation violation accepted")
	}
	// Wrong value accounting.
	good, err := ILP{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	good.Value += 5
	if err := ValidateSchedule(p, &good); err == nil {
		t.Error("wrong value accepted")
	}
	// Time going backwards.
	bad = Schedule{Captures: [][]Capture{{
		{TargetID: 1, Time: 10, Aim: pt(0, 60e3)},
		{TargetID: 2, Time: 5, Aim: pt(80e3, 60e3)},
	}}, Value: 2}
	if err := ValidateSchedule(p, &bad); err == nil {
		t.Error("backwards time accepted")
	}
	// Wrong aim point.
	bad = Schedule{Captures: [][]Capture{{{TargetID: 1, Time: t1, Aim: pt(5e3, 60e3)}}}, Value: 1}
	if err := ValidateSchedule(p, &bad); err == nil {
		t.Error("wrong aim accepted")
	}
}

func TestTrimTargetsDense(t *testing.T) {
	// 200 targets, cap at default 30 per follower: the ILP must still
	// produce a valid schedule quickly.
	rng := rand.New(rand.NewSource(51))
	var targets []Target
	for i := 0; i < 200; i++ {
		targets = append(targets, Target{
			ID:    i + 1,
			Pos:   pt(rng.Float64()*160e3-80e3, 30e3+rng.Float64()*80e3),
			Value: 1 + rng.Float64(),
		})
	}
	p := frameProblem(targets, 1)
	out, err := ILP{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(p, &out); err != nil {
		t.Fatal(err)
	}
	if out.NumCaptures() == 0 {
		t.Error("dense frame: no captures at all")
	}
}

func TestScheduleAccessors(t *testing.T) {
	p := frameProblem(mkTargets([]geo.Point2{pt(0, 50e3), pt(5e3, 70e3)}, 1), 1)
	out, err := ILP{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCaptures() != len(out.Captures[0]) {
		t.Error("NumCaptures mismatch")
	}
	if deg := out.TotalSlewDeg(p); deg <= 0 {
		t.Errorf("TotalSlewDeg = %v, want positive", deg)
	}
	ids := out.CoveredIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("CoveredIDs not sorted ascending")
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var targets []Target
	for i := 0; i < 15; i++ {
		targets = append(targets, Target{
			ID:    i + 1,
			Pos:   pt(rng.Float64()*100e3-50e3, 30e3+rng.Float64()*60e3),
			Value: 1,
		})
	}
	p := frameProblem(targets, 2)
	a, err := Greedy{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.NumCaptures() != b.NumCaptures() {
		t.Error("greedy not deterministic")
	}
}
