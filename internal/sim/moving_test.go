package sim

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/geo"
	"eagleeye/internal/obs"
)

// movingWorld is an airplanes-shaped moving set around smallWorld's
// sites: every target flies a great-circle course at 180-300 m/s, and two
// thirds exist only inside an [appear, vanish] window scattered over
// spanS, so the live population changes from one 600 s index bucket to
// the next. The wide spread keeps frames to a handful of targets, so no
// solve comes near its wall-clock limit even under the race detector on
// a loaded machine (a truncated solve may legally change a schedule).
func movingWorld(n int, seed int64, spanS float64) *dataset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := &dataset.Set{Name: "moving", Moving: true}
	centers := []geo.LatLon{
		{Lat: 0, Lon: 0}, {Lat: 20, Lon: 40}, {Lat: -30, Lon: 120},
		{Lat: 50, Lon: -80}, {Lat: -10, Lon: -60},
	}
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		tgt := dataset.Target{
			ID:         i,
			Pos:        geo.LatLon{Lat: c.Lat + rng.NormFloat64()*9, Lon: c.Lon + rng.NormFloat64()*9}.Normalize(),
			SpeedMS:    180 + 120*rng.Float64(),
			HeadingDeg: 360 * rng.Float64(),
			Value:      0.5 + 0.5*rng.Float64(),
		}
		if rng.Float64() < 0.67 {
			tgt.AppearS = 0.8 * spanS * rng.Float64()
			tgt.VanishS = tgt.AppearS + 1800 + rng.Float64()*spanS/4
		}
		s.Targets = append(s.Targets, tgt)
	}
	return s
}

// movingCfg is the moving-world scenario of the determinism contracts:
// four leader groups and recapture dedup on (its registry keys read
// target positions at capture time) over 3 h, which spans 18 index
// buckets.
func movingCfg() Config {
	return Config{
		Constellation:  constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:            movingWorld(12000, 57, 3*3600),
		DurationS:      3 * 3600,
		Seed:           7,
		RecaptureDedup: true,
	}
}

// byFrame orders trace records by (group, frame). A windowed run drains
// its staged records at every Advance boundary, group by group, so its
// stream is window-major while a one-shot run's is group-major; the
// records themselves are identical.
func byFrame(recs []TraceRecord) []TraceRecord {
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].Group != recs[b].Group {
			return recs[a].Group < recs[b].Group
		}
		return recs[a].Frame < recs[b].Frame
	})
	return recs
}

// traceDigest hashes a trace's deterministic content: every record with
// its timing fields zeroed (decodeTrace), re-encoded as JSON.
func traceDigest(t *testing.T, buf *bytes.Buffer) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, rec := range decodeTrace(t, buf) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return h.Sum64()
}

// TestMovingWorldWorkersDeterministic: Workers=4 is byte-identical to
// Workers=1 on a moving world, where concurrent jobs build and sweep the
// shared index epochs.
func TestMovingWorldWorkersDeterministic(t *testing.T) {
	cfg := movingCfg()
	var tr1, trN bytes.Buffer
	seq := cfg
	seq.Workers = 1
	seq.Trace = &tr1
	par := cfg
	par.Workers = 4
	par.Trace = &trN
	a := run(t, seq)
	b := run(t, par)
	if na, nb := normalized(a), normalized(b); !reflect.DeepEqual(na, nb) {
		t.Errorf("Workers=1 and Workers=4 diverge:\n%+v\nvs\n%+v", na, nb)
	}
	if ta, tb := decodeTrace(t, &tr1), decodeTrace(t, &trN); !reflect.DeepEqual(ta, tb) {
		t.Errorf("traces diverge: %d vs %d records", len(ta), len(tb))
	}
}

// TestMovingWorldWindowedMatchesOneShot: windows that cut through the
// 600 s index buckets and hourly epochs -- so epochs are retired between
// Advance calls while later frames still query their successors --
// reproduce the one-shot Result and trace.
func TestMovingWorldWindowedMatchesOneShot(t *testing.T) {
	cfg := movingCfg()
	cfg.Workers = 4
	var oneTr, winTr bytes.Buffer
	one := cfg
	one.Trace = &oneTr
	oneRes := run(t, one)

	win := cfg
	win.Trace = &winTr
	r := mustRunner(t, win)
	for _, b := range []float64{500, 1300, 1300, 1900, 3001.5, 4500, 6100, 8000, 1e9} {
		advance(t, r, b)
	}
	if !r.Done() {
		t.Fatalf("runner not done at %v / %v", r.Now(), r.Duration())
	}
	winRes := result(t, r)
	if na, nb := normalized(oneRes), normalized(winRes); !reflect.DeepEqual(na, nb) {
		t.Errorf("windowed result diverges from one-shot:\n%+v\nvs\n%+v", na, nb)
	}
	if ta, tb := byFrame(decodeTrace(t, &oneTr)), byFrame(decodeTrace(t, &winTr)); !reflect.DeepEqual(ta, tb) {
		t.Errorf("windowed trace diverges: %d vs %d records", len(ta), len(tb))
	}
}

// TestMovingWorldRestoreMatchesUninterrupted: snapshot mid-bucket,
// restore into a fresh runner (whose index starts empty) and continue;
// the Result and the stitched trace match the uninterrupted run.
func TestMovingWorldRestoreMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	cfg := movingCfg()
	cfg.Workers = 4
	var refTr bytes.Buffer
	ref := cfg
	ref.Trace = &refTr
	refRes := run(t, ref)
	refRecs := byFrame(decodeTrace(t, &refTr))

	for _, cutS := range []float64{1807.25, 5400} {
		var pre, post bytes.Buffer
		first := cfg
		first.Trace = &pre
		r := mustRunner(t, first)
		advance(t, r, cutS/2)
		advance(t, r, cutS)
		var snap bytes.Buffer
		if err := r.Snapshot(&snap); err != nil {
			t.Fatalf("cut %v: snapshot: %v", cutS, err)
		}
		r.Close()

		second := cfg
		second.Workers = 1
		second.Trace = &post
		rr, err := RestoreRunner(second, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("cut %v: restore: %v", cutS, err)
		}
		advance(t, rr, cfg.DurationS)
		res := result(t, rr)
		rr.Close()
		if na, nb := normalized(refRes), normalized(res); !reflect.DeepEqual(na, nb) {
			t.Errorf("cut %v: restored result diverges from uninterrupted:\n%+v\nvs\n%+v", cutS, na, nb)
		}
		if recs := byFrame(decodeTrace(t, bytes.NewBufferString(pre.String()+post.String()))); !reflect.DeepEqual(refRecs, recs) {
			t.Errorf("cut %v: stitched trace diverges: %d vs %d records", cutS, len(refRecs), len(recs))
		}
	}
}

// TestRunnerPrefetchHorizon pins when Advance prefetches an index epoch:
// at each hour boundary strictly before the configured duration, so a
// 1 h run prefetches nothing and a 3 h run prefetches epochs 1 and 2,
// and windowed runs build and prefetch what the one-shot run does. The
// registry's build count matches the index's. Close waits for a build
// still in flight, and no goroutine outlives Close or a one-shot Run.
func TestRunnerPrefetchHorizon(t *testing.T) {
	base := runtime.NumGoroutine()
	stats := func(cfg Config, bounds ...float64) dataset.EpochStats {
		t.Helper()
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bounds {
			advance(t, r, b)
		}
		r.Close()
		st := r.index.EpochStats()
		if got := reg.CounterValue("eagleeye_index_epoch_builds_total"); got != st.Builds {
			t.Errorf("builds counter %d, index built %d", got, st.Builds)
		}
		return st
	}
	hour := movingCfg()
	hour.DurationS = 3600
	if st := stats(hour, 3600); st.Builds != 1 || st.Prefetches != 0 {
		t.Errorf("1 h run: %+v, want 1 build and no prefetch", st)
	}
	cfg := movingCfg()
	one := stats(cfg, cfg.DurationS)
	if one.Builds != 3 || one.Prefetches != 2 {
		t.Errorf("3 h run: %+v, want 3 builds, 2 of them prefetched", one)
	}
	for _, bounds := range [][]float64{
		{500, 1300, 1300, 1900, 3001.5, 4500, 6100, 8000, 1e9},
		{3600, 7200, 10800},
		{3599.5, 3600.5, 7199.5, 7200.5, 1e9},
	} {
		if win := stats(cfg, bounds...); win.Builds != one.Builds || win.Prefetches != one.Prefetches {
			t.Errorf("windows %v: %+v, one-shot %+v", bounds, win, one)
		}
	}
	// Just past the first boundary the build of epoch 2 has only begun;
	// Close must not return before it ends.
	if st := stats(cfg, 3601); st.Builds != 3 || st.Prefetches != 2 {
		t.Errorf("closed at 3601 s: %+v, want the prefetched epoch 2 built", st)
	}
	run(t, cfg)
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines after Close and Run, %d before", n, base)
	}
}

// TestRunnerCoursesPerReachedHour pins which courses a run computes: a
// 1 h, 2-satellite airplanes run (dataset seed 1) builds one epoch and
// computes the courses of the 20,124 airplanes appearing in its hour, and
// a 24 h run builds 24 epochs and computes all 55,196. The registry's
// course counter matches the index's.
func TestRunnerCoursesPerReachedHour(t *testing.T) {
	for _, c := range []struct {
		hours                   float64
		wantBuilds, wantCourses int64
	}{
		{1, 1, 20124},
		{24, 24, dataset.AirplaneCount},
	} {
		reg := obs.NewRegistry()
		r, err := NewRunner(Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 2},
			App:           dataset.Airplanes(1),
			DurationS:     c.hours * 3600,
			Seed:          1,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		advance(t, r, r.cfg.DurationS)
		r.index.Wait()
		st := r.index.EpochStats()
		if st.Builds != c.wantBuilds || st.Courses != c.wantCourses {
			t.Errorf("%v h run: %d builds, %d courses; want %d and %d", c.hours, st.Builds, st.Courses, c.wantBuilds, c.wantCourses)
		}
		r.Close()
		if got := reg.CounterValue("eagleeye_index_courses_total"); got != st.Courses {
			t.Errorf("%v h run: courses counter %d, index computed %d", c.hours, got, st.Courses)
		}
	}
}

// TestMovingWorldGolden pins the moving-world run against values recorded
// before the index built buckets from live targets on cached courses: any
// change to which targets a frame sees, or where, moves these numbers.
func TestMovingWorldGolden(t *testing.T) {
	cfg := movingCfg()
	var tr bytes.Buffer
	cfg.Trace = &tr
	res := run(t, cfg)
	type golden struct {
		Frames, FramesWithTargets, Detections, Clusters, Captures int
		HighResCaptured, LowResSeen, RecaptureSuppressed          int
		CrosslinkBytes                                            float64
		Trace                                                     uint64
	}
	got := golden{
		res.Frames, res.FramesWithTargets, res.Detections, res.Clusters, res.Captures,
		res.HighResCaptured, res.LowResSeen, res.RecaptureSuppressed,
		res.CrosslinkBytes, traceDigest(t, &tr),
	}
	want := golden{
		Frames: 3096, FramesWithTargets: 208, Detections: 221, Clusters: 219, Captures: 219,
		HighResCaptured: 184, LowResSeen: 255, RecaptureSuppressed: 3,
		CrosslinkBytes: 7388, Trace: 0x38d1a83ba6afe053,
	}
	if got != want {
		t.Errorf("moving-world run moved:\n got %+v\nwant %+v", got, want)
	}
}
