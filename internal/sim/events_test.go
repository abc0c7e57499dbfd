package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"eagleeye/internal/constellation"
)

func eventCfg(seed int64, events ...Event) Config {
	return Config{
		// One group of a leader plus three followers, so partial
		// follower loss and re-election chains are both expressible.
		Constellation: constellation.Config{
			Kind: constellation.LeaderFollower, Satellites: 4, FollowersPerGroup: 3,
		},
		App:       smallWorld(1500, 90),
		DurationS: 3 * 3600,
		Seed:      seed,
		Events:    events,
	}
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nan-time", eventCfg(1, Event{AtS: math.NaN(), Kind: EventFollowerFail})},
		{"negative-time", eventCfg(1, Event{AtS: -1, Kind: EventFollowerFail})},
		{"unknown-kind", eventCfg(1, Event{AtS: 10, Kind: EventKind(99)})},
		{"group-out-of-range", eventCfg(1, Event{AtS: 10, Kind: EventLeaderFail, Group: 5})},
		{"follower-out-of-range", eventCfg(1, Event{AtS: 10, Kind: EventFollowerFail, Follower: 7})},
		{"mix-follower-fail", Config{
			Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 2},
			App:           smallWorld(100, 91),
			Events:        []Event{{AtS: 10, Kind: EventFollowerFail}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRunner(tc.cfg); err == nil {
				t.Error("invalid event accepted")
			}
		})
	}
}

// TestAllFollowersFailDegradesToSeenOnly: once every capture payload in a
// group is gone, the leader keeps imaging (seen statistics stay honest)
// but the detect/schedule pipeline stops -- no captures, no solves after
// the last failure.
func TestAllFollowersFailDegradesToSeenOnly(t *testing.T) {
	base := run(t, eventCfg(2))
	r := run(t, eventCfg(2,
		Event{AtS: 0, Kind: EventFollowerFail, Follower: 0},
		Event{AtS: 0, Kind: EventFollowerFail, Follower: 1},
		Event{AtS: 0, Kind: EventFollowerFail, Follower: 2},
	))
	if r.EventsApplied != 3 || r.SatsFailed != 3 {
		t.Errorf("applied %d failed %d, want 3/3", r.EventsApplied, r.SatsFailed)
	}
	if r.Captures != 0 || r.Detections != 0 || r.SchedSolves != 0 {
		t.Errorf("dead group still ran the pipeline: %+v", r)
	}
	if r.LowResSeen == 0 || r.FramesWithTargets == 0 {
		t.Error("leader stopped seeing after follower failures")
	}
	if r.Frames != base.Frames {
		t.Errorf("leader frames %d != baseline %d", r.Frames, base.Frames)
	}
	if base.Captures == 0 {
		t.Fatal("baseline captured nothing; scenario too small")
	}
}

// TestFollowerFailReducesCapacity: losing one of three followers mid-run
// can only shrink the capture count, never the seen count.
func TestFollowerFailReducesCapacity(t *testing.T) {
	base := run(t, eventCfg(3))
	r := run(t, eventCfg(3, Event{AtS: 30 * 60, Kind: EventFollowerFail, Follower: 1}))
	if r.SatsFailed != 1 || r.EventsApplied != 1 {
		t.Errorf("failed %d applied %d, want 1/1", r.SatsFailed, r.EventsApplied)
	}
	if r.Captures > base.Captures {
		t.Errorf("captures grew after a failure: %d > %d", r.Captures, base.Captures)
	}
	if r.LowResSeen != base.LowResSeen {
		t.Errorf("seen changed with a follower failure: %d vs %d", r.LowResSeen, base.LowResSeen)
	}
	// A duplicate failure of the same follower is idempotent.
	rr := run(t, eventCfg(3,
		Event{AtS: 30 * 60, Kind: EventFollowerFail, Follower: 1},
		Event{AtS: 40 * 60, Kind: EventFollowerFail, Follower: 1},
	))
	if rr.SatsFailed != 1 {
		t.Errorf("duplicate failure double-counted: SatsFailed=%d", rr.SatsFailed)
	}
	if rr.EventsApplied != 2 {
		t.Errorf("events applied %d, want 2", rr.EventsApplied)
	}
}

// TestLeaderFailReelects: the first surviving follower takes over the
// leader role at the boundary; the group keeps operating with one fewer
// payload and the re-election is counted once.
func TestLeaderFailReelects(t *testing.T) {
	r := run(t, eventCfg(4, Event{AtS: 45 * 60, Kind: EventLeaderFail}))
	if r.LeaderReelections != 1 || r.SatsFailed != 1 || r.EventsApplied != 1 {
		t.Errorf("reelections %d failed %d applied %d, want 1/1/1",
			r.LeaderReelections, r.SatsFailed, r.EventsApplied)
	}
	// The group must survive the handover: frames keep accumulating well
	// past the event, and the pipeline still schedules and captures.
	shortCfg := eventCfg(4)
	shortCfg.DurationS = 45 * 60
	short := run(t, shortCfg)
	if r.Frames <= short.Frames {
		t.Errorf("group went dark after re-election: %d frames vs %d at the event", r.Frames, short.Frames)
	}
	if r.Captures == 0 || r.SchedSolves == 0 {
		t.Errorf("re-elected group never scheduled: %+v", r)
	}
}

// TestLeaderFailAtStart: a re-elected leader's stepper is anchored at the
// failure's boundary and advances with the group from the next frame on,
// so it always stands at the last frame's time (its elapsed time plus a
// cadence is the next frame's), whether the failure fires at the first
// frame or later, across window boundaries, a one-shot run and a restore
// replay. At the first frame no advance runs, so a stepper that skipped
// its next advance there imaged a cadence behind for the rest of the run.
func TestLeaderFailAtStart(t *testing.T) {
	for _, at := range []float64{0, 100} {
		cfg := eventCfg(4, Event{AtS: at, Kind: EventLeaderFail})
		cfg.DurationS = 1800
		check := func(r *Runner, when string) {
			t.Helper()
			j := r.jobs[0].(*groupJob)
			if got := j.lead.Elapsed() + j.cadence; got != j.ts {
				t.Errorf("failure at %v s, %s: the leader stepper stands at %v s, the last frame at %v s",
					at, when, j.lead.Elapsed(), j.ts-j.cadence)
			}
		}
		r := mustRunner(t, cfg)
		for _, b := range []float64{13, 300, 900} {
			advance(t, r, b)
			check(r, fmt.Sprintf("window to %v s", b))
		}
		var snap bytes.Buffer
		if err := r.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		rr, err := RestoreRunner(cfg, &snap)
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		check(rr, "restored at 900 s")
		advance(t, rr, cfg.DurationS)
		check(rr, "restored, then to the end")
		one := mustRunner(t, cfg)
		advance(t, one, cfg.DurationS)
		check(one, "one-shot")
		if res := result(t, one); res.LeaderReelections != 1 || res.FramesWithTargets == 0 {
			t.Errorf("failure at %v s: %d re-elections over %d frames with targets, want 1 over some", at, res.LeaderReelections, res.FramesWithTargets)
		}
	}
}

// TestLeaderFailCascadeGoesDark: enough leader failures exhaust the
// group (each re-election consumes a follower); the group then freezes at
// the boundary of the final failure.
func TestLeaderFailCascadeGoesDark(t *testing.T) {
	events := []Event{
		{AtS: 600, Kind: EventLeaderFail},
		{AtS: 601, Kind: EventLeaderFail},
		{AtS: 602, Kind: EventLeaderFail},
		{AtS: 603, Kind: EventLeaderFail},
	}
	r := run(t, eventCfg(5, events...))
	if r.SatsFailed != 4 || r.LeaderReelections != 3 {
		t.Errorf("failed %d reelections %d, want 4/3", r.SatsFailed, r.LeaderReelections)
	}
	full := run(t, eventCfg(5))
	if r.Frames >= full.Frames {
		t.Errorf("dark group kept producing frames: %d vs full %d", r.Frames, full.Frames)
	}
}

// TestMixLeaderFailGoesDark: a mix-camera satellite has no spare bus, so
// a leader failure retires it outright.
func TestMixLeaderFailGoesDark(t *testing.T) {
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 2},
		App:           smallWorld(1200, 92),
		DurationS:     2 * 3600,
		Seed:          6,
	}
	full := run(t, cfg)
	withEv := cfg
	withEv.Events = []Event{{AtS: 1800, Kind: EventLeaderFail, Group: 0}}
	r := run(t, withEv)
	if r.SatsFailed != 1 || r.LeaderReelections != 0 {
		t.Errorf("failed %d reelections %d, want 1/0", r.SatsFailed, r.LeaderReelections)
	}
	if r.Frames >= full.Frames {
		t.Errorf("dark mix satellite kept producing frames: %d vs %d", r.Frames, full.Frames)
	}
}

// TestStripFailRetires: the baselines have no group structure -- a fault
// of either kind retires the satellite and freezes its analytic energy
// accounting at the boundary.
func TestStripFailRetires(t *testing.T) {
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.LowResOnly, Satellites: 2},
		App:           smallWorld(1200, 93),
		DurationS:     2 * 3600,
		Seed:          7,
	}
	full := run(t, cfg)
	withEv := cfg
	withEv.Events = []Event{{AtS: 1800, Kind: EventFollowerFail, Group: 1}}
	r := run(t, withEv)
	if r.SatsFailed != 1 || r.EventsApplied != 1 {
		t.Errorf("failed %d applied %d, want 1/1", r.SatsFailed, r.EventsApplied)
	}
	if r.Frames >= full.Frames {
		t.Errorf("retired strip satellite kept producing frames: %d vs %d", r.Frames, full.Frames)
	}
	if full.LeaderBudget != nil && r.LeaderBudget != nil &&
		r.LeaderBudget.CameraJ >= full.LeaderBudget.CameraJ {
		t.Errorf("retired satellite kept booking imaging energy: %.1fJ vs %.1fJ",
			r.LeaderBudget.CameraJ, full.LeaderBudget.CameraJ)
	}
}

// TestEventsDeterministicAcrossWorkers: the fault schedule is part of the
// scenario, so Workers=N stays byte-identical with events in play.
func TestEventsDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int, tr *bytes.Buffer) Config {
		cfg := Config{
			Constellation: constellation.Config{
				Kind: constellation.LeaderFollower, Satellites: 8, FollowersPerGroup: 3,
			},
			App:       smallWorld(1500, 94),
			DurationS: 2 * 3600,
			Seed:      8,
			Workers:   workers,
			Trace:     tr,
			Events: []Event{
				{AtS: 1200, Kind: EventFollowerFail, Group: 0, Follower: 2},
				{AtS: 2400, Kind: EventLeaderFail, Group: 1},
			},
		}
		return cfg
	}
	var tr1, trN bytes.Buffer
	a := run(t, mk(1, &tr1))
	b := run(t, mk(4, &trN))
	if na, nb := normalized(a), normalized(b); !reflect.DeepEqual(na, nb) {
		t.Errorf("events break worker determinism:\n%+v\nvs\n%+v", na, nb)
	}
	if ta, tb := decodeTrace(t, &tr1), decodeTrace(t, &trN); !reflect.DeepEqual(ta, tb) {
		t.Errorf("traces diverge with events: %d vs %d records", len(ta), len(tb))
	}
}

// TestSnapshotAcrossEventBoundary: checkpointing after an event fired
// must not re-count it on restore (structure replays, accounting does
// not), and checkpointing before it must still fire it exactly once.
func TestSnapshotAcrossEventBoundary(t *testing.T) {
	cfg := eventCfg(9,
		Event{AtS: 1200, Kind: EventFollowerFail, Follower: 0},
		Event{AtS: 7200, Kind: EventLeaderFail},
	)
	cfg.Workers = 4
	ref := run(t, cfg)

	for _, cutS := range []float64{600, 1800, 7300} { // before, between, after
		r := mustRunner(t, cfg)
		advance(t, r, cutS)
		var snap bytes.Buffer
		if err := r.Snapshot(&snap); err != nil {
			t.Fatalf("cut %v: %v", cutS, err)
		}
		r.Close()
		rr, err := RestoreRunner(cfg, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("cut %v: restore: %v", cutS, err)
		}
		advance(t, rr, cfg.DurationS)
		res := result(t, rr)
		rr.Close()
		if res.EventsApplied != ref.EventsApplied || res.SatsFailed != ref.SatsFailed ||
			res.LeaderReelections != ref.LeaderReelections {
			t.Errorf("cut %v: event accounting drifted: applied %d/%d failed %d/%d reelected %d/%d",
				cutS, res.EventsApplied, ref.EventsApplied, res.SatsFailed, ref.SatsFailed,
				res.LeaderReelections, ref.LeaderReelections)
		}
		if na, nb := normalized(ref), normalized(res); !reflect.DeepEqual(na, nb) {
			t.Errorf("cut %v: restored result diverges:\n%+v\nvs\n%+v", cutS, na, nb)
		}
	}
}
