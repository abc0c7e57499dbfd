package eagleeye

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func contCfg(seed int64) Config {
	return Config{
		Satellites:        4,
		FollowersPerGroup: 3,
		Targets:           benchWorld(400, 21),
		DurationHours:     2,
		Seed:              seed,
		Workers:           2,
		Continuous:        true,
	}
}

// deterministic projects the fields of a Result that are exact for a
// fixed seed (dropping wall-clock-derived scheduler/solver timings).
func deterministic(r *Result) Result {
	c := *r
	c.SchedulerMeanMS = 0
	c.SchedulerMaxMS = 0
	c.MissedDeadlines = 0
	c.SolverNodes = 0
	c.SolverIters = 0
	c.SolverPivotMS = 0
	return c
}

func TestStepRejectsInvalidHours(t *testing.T) {
	for _, continuous := range []bool{false, true} {
		cfg := contCfg(1)
		cfg.Continuous = continuous
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{-1, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := s.Step(StepOptions{Hours: h}); err == nil {
				t.Errorf("continuous=%v: Hours=%v accepted (silently ran the full duration)", continuous, h)
			}
		}
		if s.Steps() != 0 {
			t.Errorf("continuous=%v: rejected steps consumed %d step indices", continuous, s.Steps())
		}
	}
}

// TestContinuousSessionMatchesRun: stepping a continuous session through
// its duration in uneven windows must land on the same cumulative result
// as the one-shot Run -- one timeline, not a sequence of reseeded windows.
func TestContinuousSessionMatchesRun(t *testing.T) {
	cfg := contCfg(11)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last *Result
	for _, h := range []float64{0.25, 0.6, 0} { // 0 = run out the remainder
		if last, err = s.Step(StepOptions{Hours: h}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatal("session not done after stepping past its duration")
	}
	if got, want := deterministic(last), deterministic(want); got != want {
		t.Errorf("continuous session diverges from Run:\n%+v\nvs\n%+v", got, want)
	}
	agg := s.Aggregate()
	if agg.Steps != 3 || agg.SimulatedHours != cfg.DurationHours || agg.Frames != want.Frames {
		t.Errorf("aggregate %+v, want 3 steps / %v h / %d frames", agg, cfg.DurationHours, want.Frames)
	}
	if _, err := s.Step(StepOptions{}); err == nil {
		t.Error("stepping a completed continuous session succeeded")
	}
}

// TestContinuousCheckpointRestore is the facade acceptance differential:
// checkpoint mid-timeline, restore in a "new process", finish stepping --
// identical to never having stopped, including the aggregate cursor.
func TestContinuousCheckpointRestore(t *testing.T) {
	cfg := contCfg(12)
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Step(StepOptions{Hours: 0.7}); err != nil {
		t.Fatal(err)
	}
	refFinal, err := ref.Step(StepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(StepOptions{Hours: 0.7}); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	s.Close() // the first "process" exits

	r, err := RestoreSession(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Steps() != 1 {
		t.Fatalf("restored step count %d, want 1", r.Steps())
	}
	final, err := r.Step(StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deterministic(final), deterministic(refFinal); got != want {
		t.Errorf("restored session diverges from uninterrupted:\n%+v\nvs\n%+v", got, want)
	}
	if ra, wa := r.Aggregate(), ref.Aggregate(); ra != wa {
		t.Errorf("restored aggregate diverges: %+v vs %+v", ra, wa)
	}
}

// TestWindowedCheckpointRestore: a windowed session's state is its
// cursor; restoring must continue the derived-seed sequence exactly.
func TestWindowedCheckpointRestore(t *testing.T) {
	cfg := Config{
		Satellites:    2,
		Targets:       benchWorld(200, 9),
		DurationHours: 1,
		Seed:          3,
		Workers:       1,
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Step(StepOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Step(StepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(StepOptions{}); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Step(StepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dg, dw := deterministic(got), deterministic(want); dg != dw {
		t.Errorf("restored windowed session diverges on step 1:\n%+v\nvs\n%+v", dg, dw)
	}
	if r.Aggregate() != ref.Aggregate() {
		t.Errorf("aggregates diverge: %+v vs %+v", r.Aggregate(), ref.Aggregate())
	}
}

func TestRestoreRejectsJunk(t *testing.T) {
	if _, err := RestoreSession(strings.NewReader("definitely not a checkpoint")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := RestoreSession(strings.NewReader("EESESSV1")); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// TestRestoreBoundsAllocation: a length field read from the stream must
// not size an allocation on its own. A body that claims a 256 MiB header,
// or a valid header followed by a claimed 256 MiB snapshot, and then ends
// must fail on EOF having allocated in proportion to the bytes received.
func TestRestoreBoundsAllocation(t *testing.T) {
	var header bytes.Buffer
	header.WriteString(sessMagic)
	header.Write([]byte{0x10, 0, 0, 0}) // 1<<28 = maxCheckpointHeader
	cfg := contCfg(1)
	cfg.Targets = benchWorld(5, 1)
	hj, err := json.Marshal(sessionHeader{Config: cfg, HasSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	snapshot.WriteString(sessMagic)
	binary.Write(&snapshot, binary.BigEndian, uint32(len(hj)))
	snapshot.Write(hj)
	binary.Write(&snapshot, binary.BigEndian, uint64(maxCheckpointHeader))
	for name, body := range map[string][]byte{"header length": header.Bytes(), "snapshot length": snapshot.Bytes()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RestoreSession(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: error %v, want the stream's EOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: restoring a %d-byte body allocated %d bytes, want < 1 MiB", name, len(body), got)
		}
	}
}

// TestRestoreBoundsSatellites: a checkpoint header is untrusted input, so
// a satellite count above MaxSatellites must fail RestoreSession before
// anything is built from it -- not on the first Step, which would build
// every satellite.
func TestRestoreBoundsSatellites(t *testing.T) {
	hj, err := json.Marshal(sessionHeader{Config: Config{Dataset: DatasetShips, Satellites: 2_000_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.WriteString(sessMagic)
	binary.Write(&body, binary.BigEndian, uint32(len(hj)))
	body.Write(hj)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = RestoreSession(bytes.NewReader(body.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "satellites") {
		t.Errorf("restore of a 2e9-satellite header: error %v, want the satellite bound", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes, want < 1 MiB", got)
	}
}

// TestFacadeFaultEvents: the public Events surface maps onto the
// simulator's fault schedule and reports its accounting.
func TestFacadeFaultEvents(t *testing.T) {
	cfg := contCfg(13)
	cfg.Continuous = false
	cfg.Events = []FaultEvent{
		{AtHours: 0.5, Kind: FaultFollowerFail, Group: 0, Follower: 1},
		{AtHours: 1.2, Kind: FaultLeaderFail, Group: 0},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.EventsApplied != 2 || r.SatsFailed != 2 || r.LeaderReelections != 1 {
		t.Errorf("fault accounting: applied %d failed %d reelected %d, want 2/2/1",
			r.EventsApplied, r.SatsFailed, r.LeaderReelections)
	}

	cfg.Events = []FaultEvent{{AtHours: 1, Kind: "meteor-strike"}}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown fault kind accepted")
	}
	cfg.Events = []FaultEvent{{AtHours: -1, Kind: FaultLeaderFail}}
	if _, err := Run(cfg); err == nil {
		t.Error("negative fault time accepted")
	}
}

// TestContinuousTraceStitching: trace bytes written before a checkpoint
// plus those written after restore equal an uninterrupted session's
// stream (modulo wall-clock fields, which decodeTrace-style consumers
// ignore; here the deterministic prefix of each line is compared).
func TestContinuousTraceStitching(t *testing.T) {
	cfg := contCfg(14)
	var whole bytes.Buffer
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Step(StepOptions{Trace: &whole}); err != nil {
		t.Fatal(err)
	}

	var pre, post bytes.Buffer
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(StepOptions{Hours: 0.8, Trace: &pre}); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := RestoreSession(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Step(StepOptions{Trace: &post}); err != nil {
		t.Fatal(err)
	}

	a := strings.Split(strings.TrimRight(whole.String(), "\n"), "\n")
	b := strings.Split(strings.TrimRight(pre.String()+post.String(), "\n"), "\n")
	if len(a) != len(b) {
		t.Fatalf("stitched trace has %d records, uninterrupted %d", len(b), len(a))
	}
	for i := range a {
		// Every line starts with the deterministic identity fields
		// (group, frame, time, position, counts) before any timing.
		ga, gb := a[i][:strings.Index(a[i], `"sched_ms"`)], b[i][:strings.Index(b[i], `"sched_ms"`)]
		if ga != gb {
			t.Fatalf("trace line %d diverges:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// FuzzRestoreSession feeds arbitrary bytes to RestoreSession, the reader
// behind spool loading and POST /v1/sessions/restore: every input must
// yield a session or an error, never a panic or a hang. The seeds are a
// valid continuous-session checkpoint (built as
// TestContinuousCheckpointRestore builds one), its truncations at the
// header, mid-header and mid-snapshot, and two bodies whose length fields
// lie: the 12-byte body claiming a 2^28-byte header and a header naming
// 2e9 satellites. Those two must fail having allocated under 1 MiB.
func FuzzRestoreSession(f *testing.F) {
	s, err := NewSession(contCfg(12))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Step(StepOptions{Hours: 0.7}); err != nil {
		f.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		f.Fatal(err)
	}
	s.Close()
	valid := ck.Bytes()
	if r, err := RestoreSession(bytes.NewReader(valid)); err != nil {
		f.Fatalf("the valid seed does not restore: %v", err)
	} else {
		r.Close()
	}
	hdrEnd := 12 + int(binary.BigEndian.Uint32(valid[8:12]))
	f.Add(valid)
	f.Add(valid[:12])
	f.Add(valid[:12+(hdrEnd-12)/2])
	f.Add(valid[:hdrEnd+8+(len(valid)-hdrEnd-8)/2])

	hugeHeader := append([]byte(sessMagic), 0x10, 0, 0, 0)
	hj, err := json.Marshal(sessionHeader{Config: Config{Dataset: DatasetShips, Satellites: 2_000_000_000}})
	if err != nil {
		f.Fatal(err)
	}
	manySats := binary.BigEndian.AppendUint32([]byte(sessMagic), uint32(len(hj)))
	manySats = append(manySats, hj...)
	bounded := map[string]bool{string(hugeHeader): true, string(manySats): true}
	f.Add(hugeHeader)
	f.Add(manySats)

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := RestoreSession(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		switch {
		case err == nil && s == nil:
			t.Fatal("no session and no error")
		case err != nil && s != nil:
			t.Fatalf("a session and an error: %v", err)
		case s != nil:
			s.Close()
		}
		if got := after.TotalAlloc - before.TotalAlloc; bounded[string(body)] && (err == nil || got >= 1<<20) {
			t.Errorf("restoring a %d-byte body with a lying length field: error %v, allocated %d bytes, want an error under 1 MiB", len(body), err, got)
		}
	})
}
