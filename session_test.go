package eagleeye

import (
	"sync"
	"testing"
	"time"
)

func TestSessionRejectsBadConfig(t *testing.T) {
	if _, err := NewSession(Config{}); err == nil {
		t.Error("missing workload accepted at session creation")
	}
	if _, err := NewSession(Config{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset accepted at session creation")
	}
}

// TestSessionBoundsDuration: a span above MaxDurationHours fails at
// session creation and on a windowed step, before anything is built or
// simulated. 1e308 h overflows to +Inf seconds, a run that never ends.
func TestSessionBoundsDuration(t *testing.T) {
	over := []float64{1e308, MaxDurationHours + 1}
	for _, h := range over {
		if _, err := NewSession(Config{Dataset: DatasetShips, DurationHours: h}); err == nil {
			t.Errorf("NewSession accepted a %v h duration", h)
		}
	}
	s, err := NewSession(Config{Dataset: DatasetShips, DurationHours: MaxDurationHours})
	if err != nil {
		t.Fatalf("NewSession rejected the bound itself: %v", err)
	}
	for _, h := range over {
		done := make(chan error, 1)
		go func() {
			_, err := s.Step(StepOptions{Hours: h})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("windowed Step accepted %v h", h)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("windowed Step of %v h still running after 10 s", h)
		}
	}
}

func TestSessionFirstRunMatchesDirectRun(t *testing.T) {
	cfg := Config{
		Satellites:    4,
		Targets:       benchWorld(400, 17),
		DurationHours: 1,
		Seed:          5,
		Workers:       1,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.HighResCaptured != want.HighResCaptured || got.Detections != want.Detections ||
		got.Captures != want.Captures || got.Frames != want.Frames ||
		got.CoveragePct != want.CoveragePct || got.CrosslinkKB != want.CrosslinkKB ||
		got.LeaderEnergyUtilization != want.LeaderEnergyUtilization ||
		got.FollowerEnergyUtilization != want.FollowerEnergyUtilization {
		t.Errorf("session first run diverges from direct run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestSessionStepsAggregate(t *testing.T) {
	cfg := Config{
		Satellites:    2,
		Targets:       benchWorld(200, 9),
		DurationHours: 6,
		Seed:          3,
		Workers:       1,
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames, detections int
	for i := 0; i < 3; i++ {
		r, err := s.Step(StepOptions{Hours: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		frames += r.Frames
		detections += r.Detections
	}
	agg := s.Aggregate()
	if agg.Steps != 3 || agg.SimulatedHours != 1.5 {
		t.Errorf("aggregate = %+v, want 3 steps / 1.5 h", agg)
	}
	if agg.Frames != frames || agg.Detections != detections {
		t.Errorf("aggregate counters diverge from per-step sums: %+v vs frames=%d detections=%d",
			agg, frames, detections)
	}
	if s.Steps() != 3 {
		t.Errorf("steps = %d", s.Steps())
	}
}

// TestSessionStepSequenceDeterministic: two sessions over the same config
// produce identical step sequences, and later windows are decorrelated
// from the first (distinct derived seeds).
func TestSessionStepSequenceDeterministic(t *testing.T) {
	cfg := Config{
		Satellites:    2,
		Targets:       benchWorld(200, 9),
		DurationHours: 1,
		Seed:          3,
		Workers:       1,
	}
	runSeq := func() []int {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seq []int
		for i := 0; i < 3; i++ {
			r, err := s.Step(StepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, r.Detections, r.Captures, r.HighResCaptured)
		}
		return seq
	}
	a, b := runSeq(), runSeq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step sequences diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStepSeedDerivation(t *testing.T) {
	if got := stepSeed(42, 0); got != 42 {
		t.Errorf("step 0 seed = %d, want the base seed", got)
	}
	seen := map[int64]bool{}
	for step := 0; step < 100; step++ {
		s := stepSeed(42, step)
		if s <= 0 {
			t.Fatalf("step %d seed = %d; must stay positive (0 means default)", step, s)
		}
		if seen[s] {
			t.Fatalf("step %d repeats seed %d", step, s)
		}
		seen[s] = true
	}
}

// TestSessionAggregateRace reads every progress getter in a loop while
// the session steps, in both modes (continuous steps advance the runner
// clock that Done and SimulatedHours report). Run under -race it pins
// that the getters read only the view a step publishes after its run.
func TestSessionAggregateRace(t *testing.T) {
	for _, continuous := range []bool{false, true} {
		sess, err := NewSession(Config{Satellites: 2, Targets: []Target{{Lat: 0, Lon: 0}},
			DurationHours: 0.6, Seed: 7, Continuous: continuous})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		stop := make(chan struct{})
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sess.Aggregate()
				_ = sess.Steps()
				_ = sess.Done()
				_ = sess.SimulatedHours()
			}
		}()
		for i := 0; i < 3; i++ {
			if _, err := sess.Step(StepOptions{Hours: 0.2}); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if got := sess.Aggregate().Steps; got != 3 {
			t.Errorf("continuous=%v: aggregate counts %d steps, want 3", continuous, got)
		}
		if continuous && !sess.Done() {
			t.Error("continuous session not done after stepping its full duration")
		}
		sess.Close()
	}
}
