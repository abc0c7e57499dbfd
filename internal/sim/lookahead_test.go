package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eagleeye/internal/constellation"
	"eagleeye/internal/obs"
)

// lookaheadCfg is the frame-lookahead contract's scenario: four groups
// of a leader and two followers over a 2 h moving world, with a follower
// failure and two leader failures (re-elections) inside the hour-long
// spans Advance runs. The re-elections hit groups 2 and 3, whose frames
// the helper reaches ahead of their loops while groups 0 and 1 run.
func lookaheadCfg() Config {
	return Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 12, FollowersPerGroup: 2},
		App:           movingWorld(12000, 57, 2*3600),
		DurationS:     2 * 3600,
		Seed:          7,
		Events: []Event{
			{AtS: 1500, Kind: EventFollowerFail, Group: 1, Follower: 1},
			{AtS: 2000, Kind: EventLeaderFail, Group: 3},
			{AtS: 4400, Kind: EventLeaderFail, Group: 2},
		},
	}
}

// lookaheadRun is what one run of the contract yields.
type lookaheadRun struct {
	res            Result
	trace          []TraceRecord
	frame, capture int64 // index candidates by query
	ahead          int64 // frame queries the helper ran
	starts         int   // helpers started
	pool           int   // the runner's worker pool
}

// candidates reads the registry's index candidates by query.
func candidates(reg *obs.Registry) (frame, capture int64) {
	return reg.CounterValue("eagleeye_index_candidates_total", obs.Label{Key: "query", Value: "frame"}),
		reg.CounterValue("eagleeye_index_candidates_total", obs.Label{Key: "query", Value: "capture"})
}

// settleGoroutines waits briefly for goroutines that have finished their
// work to exit, then fails if more than base are left.
func settleGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%s: %d goroutines, %d before", when, n, base)
	}
}

// advanceChecked advances r through bounds and, after every Advance and
// once the index's prefetch has finished, requires the goroutine count to
// be back at base: no lookahead helper outlives an Advance.
func advanceChecked(t *testing.T, r *Runner, base int, bounds []float64) {
	t.Helper()
	for _, b := range bounds {
		advance(t, r, b)
		r.index.Wait()
		settleGoroutines(t, base, fmt.Sprintf("after Advance(%v)", b))
	}
}

// runLookahead runs cfg through bounds at the given Workers and GOMAXPROCS.
func runLookahead(t *testing.T, cfg Config, bounds []float64, workers, procs, base int) lookaheadRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	reg := obs.NewRegistry()
	var tr bytes.Buffer
	cfg.Workers, cfg.Metrics, cfg.Trace = workers, reg, &tr
	r := mustRunner(t, cfg)
	advanceChecked(t, r, base, bounds)
	res := result(t, r)
	r.Close()
	out := lookaheadRun{
		res:    normalized(res),
		trace:  decodeTrace(t, &tr),
		ahead:  reg.CounterValue("eagleeye_frame_queries_ahead_total"),
		starts: r.ahead.starts,
		pool:   r.workerCount(),
	}
	out.frame, out.capture = candidates(reg)
	return out
}

// TestFrameLookaheadIdentity is the frame-query lookahead's contract: at
// Workers 1 and 4 and GOMAXPROCS 1, 2 and 8, with the helper running
// (the pool leaves a P idle) or not, over windows of one frame, 15
// minutes, an hour and one shot, the Result, the trace and the index
// candidate totals equal the run without a helper, through a follower
// failure and leader re-elections inside a span. A runner restored
// mid-span continues to the uninterrupted run's Result and trace. A
// helper starts exactly when the pool is smaller than GOMAXPROCS, so
// never with one P, and never for a run of one group; no goroutine
// outlives an Advance.
func TestFrameLookaheadIdentity(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := lookaheadCfg()
	r := mustRunner(t, cfg)
	cadence := r.jobs[0].(*groupJob).cadence
	r.Close()
	every := func(step float64) []float64 {
		var b []float64
		for x := step; x < cfg.DurationS; x += step {
			b = append(b, x)
		}
		return append(b, cfg.DurationS)
	}
	windows := []struct {
		name   string
		bounds []float64
	}{
		{"one-frame", every(cadence)},
		{"15min", every(900)},
		{"1h", every(3600)},
		{"one-shot", []float64{cfg.DurationS}},
	}
	var oneShot lookaheadRun
	var ahead int64
	for _, w := range windows {
		ref := runLookahead(t, cfg, w.bounds, 1, 1, base)
		if ref.starts != 0 || ref.ahead != 0 {
			t.Fatalf("%s: GOMAXPROCS 1 started %d helpers that ran %d queries", w.name, ref.starts, ref.ahead)
		}
		if ref.res.LeaderReelections != 2 || ref.res.SatsFailed != 3 || ref.res.FramesWithTargets == 0 {
			t.Fatalf("%s: degenerate reference: %+v", w.name, ref.res)
		}
		if w.name == "one-shot" {
			oneShot = ref
		}
		// Workers 4 runs the four groups side by side: at GOMAXPROCS 2 the
		// pool fills every P and no helper starts, at 8 one runs beside
		// all four loops.
		for _, c := range []struct{ workers, procs int }{{1, 2}, {4, 1}, {4, 2}, {4, 8}} {
			got := runLookahead(t, cfg, w.bounds, c.workers, c.procs, base)
			name := fmt.Sprintf("%s, Workers %d, GOMAXPROCS %d", w.name, c.workers, c.procs)
			if want := got.pool < c.procs; (got.starts > 0) != want {
				t.Errorf("%s: %d helpers started over a pool of %d, want some: %v", name, got.starts, got.pool, want)
			}
			ahead += got.ahead
			if !reflect.DeepEqual(got.res, ref.res) {
				t.Errorf("%s: result diverges:\n%+v\nvs\n%+v", name, got.res, ref.res)
			}
			if !reflect.DeepEqual(got.trace, ref.trace) {
				t.Errorf("%s: trace diverges: %d vs %d records", name, len(got.trace), len(ref.trace))
			}
			if got.frame != ref.frame || got.capture != ref.capture {
				t.Errorf("%s: candidates frame %d capture %d, reference %d and %d", name, got.frame, got.capture, ref.frame, ref.capture)
			}
		}
	}
	if ahead == 0 {
		t.Error("the helper ran no frame query in any run")
	}
	one := cfg
	one.Constellation.Satellites, one.Events = 3, nil
	if got := runLookahead(t, one, []float64{one.DurationS}, 1, 2, base); got.starts != 0 || got.res.FramesWithTargets == 0 {
		t.Errorf("one group: %d helpers started over %d frames with targets, want none over some", got.starts, got.res.FramesWithTargets)
	}

	// Snapshot mid-span (a 15-minute boundary inside the first hour),
	// restore with the helper on (GOMAXPROCS above either pool), and
	// continue.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, workers := range []int{1, 4} {
		var pre, post bytes.Buffer
		regPre, regPost := obs.NewRegistry(), obs.NewRegistry()
		first := cfg
		first.Workers, first.Trace, first.Metrics = workers, &pre, regPre
		r := mustRunner(t, first)
		advanceChecked(t, r, base, []float64{900, 2700})
		var snap bytes.Buffer
		if err := r.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		r.Close()
		second := cfg
		second.Workers, second.Trace, second.Metrics = workers, &post, regPost
		rr, err := RestoreRunner(second, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		advanceChecked(t, rr, base, []float64{3600, 5400, cfg.DurationS})
		res := normalized(result(t, rr))
		rr.Close()
		if r.ahead.starts == 0 || rr.ahead.starts == 0 {
			t.Errorf("restored at Workers %d: helpers started %d before and %d after the snapshot, want some", workers, r.ahead.starts, rr.ahead.starts)
		}
		if !reflect.DeepEqual(res, oneShot.res) {
			t.Errorf("restored at Workers %d: result diverges:\n%+v\nvs\n%+v", workers, res, oneShot.res)
		}
		stitched := byFrame(decodeTrace(t, bytes.NewBufferString(pre.String()+post.String())))
		if want := byFrame(oneShot.trace); !reflect.DeepEqual(stitched, want) {
			t.Errorf("restored at Workers %d: stitched trace diverges: %d vs %d records", workers, len(stitched), len(want))
		}
		f1, c1 := candidates(regPre)
		f2, c2 := candidates(regPost)
		if f1+f2 != oneShot.frame || c1+c2 != oneShot.capture {
			t.Errorf("restored at Workers %d: candidates frame %d capture %d, uninterrupted %d and %d", workers, f1+f2, c1+c2, oneShot.frame, oneShot.capture)
		}
	}
	settleGoroutines(t, base, "after Close")
}

// TestRunnerCloseReleases: Close drops the jobs' coverage flags and query
// scratch and the lookahead's buffers (and the index its courses and
// epochs: TestTimedIndexRelease), so a stale pointer to a closed runner
// pins nothing large. Every entry point then refuses the runner, and a
// second Close is a no-op.
func TestRunnerCloseReleases(t *testing.T) {
	cfg := movingCfg()
	r := mustRunner(t, cfg)
	advance(t, r, 5400)
	if r.index.EpochStats().Builds == 0 {
		t.Fatal("no epoch built before Close")
	}
	r.Close()
	for i, j := range r.jobs {
		st := j.state()
		if st.captured != nil || st.seen != nil || st.q.cands != nil || st.q.idx != nil {
			t.Errorf("job %d keeps its flags or query scratch after Close", i)
		}
		if g := j.(*groupJob); g.ahead.slots != nil {
			t.Errorf("job %d keeps its lookahead slots after Close", i)
		}
	}
	if r.ahead.sc.idx != nil || r.ahead.sc.cands != nil {
		t.Error("the lookahead keeps its buffers after Close")
	}
	r.Close()
	var buf bytes.Buffer
	for name, err := range map[string]error{
		"Advance":  r.Advance(cfg.DurationS),
		"Snapshot": r.Snapshot(&buf),
		"Result":   func() error { _, err := r.Result(); return err }(),
	} {
		if err == nil || err.Error() != "sim: runner is closed" {
			t.Errorf("%s on a closed runner: %v, want \"sim: runner is closed\"", name, err)
		}
	}
}
