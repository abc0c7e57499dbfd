package sim

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/geo"
)

// snapWorld is the differential scenario shared by the checkpoint tests:
// two leader groups so Workers=4 has real parallelism, warm start left on
// (the default), recapture dedup on so the capCells ground-cell registry
// exercises its snapshot path.
func snapWorld() (*dataset.Set, Config) {
	w := smallWorld(1200, 80)
	return w, Config{
		Constellation:  constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
		App:            w,
		DurationS:      2 * 3600,
		Seed:           13,
		Workers:        4,
		RecaptureDedup: true,
	}
}

func mustRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func advance(t *testing.T, r *Runner, untilS float64) {
	t.Helper()
	if err := r.Advance(untilS); err != nil {
		t.Fatal(err)
	}
}

func result(t *testing.T, r *Runner) *Result {
	t.Helper()
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunnerWindowedMatchesOneShot pins the windowing guarantee: any
// sequence of Advance boundaries -- frame-aligned or not, including no-op
// and duplicate boundaries -- produces the same Result and the same trace
// records as the one-shot Run, written window-major (see Runner): the
// expected stream is the one-shot records reordered window by window,
// groups in order within a window, frames in time order within a group.
// The scenario is snapWorld's with targets near both poles, so every
// group sees targets twice an orbit and groups half an orbit apart have
// records in the same window; the test fails if no window holds records
// from two groups, since only then can the order it pins differ from the
// one-shot one.
func TestRunnerWindowedMatchesOneShot(t *testing.T) {
	_, cfg := snapWorld()
	cfg.App = bipolarWorld(1200, 13)
	var oneTr bytes.Buffer
	one := cfg
	one.Trace = &oneTr
	oneRes := run(t, one)

	var winTr bytes.Buffer
	winCfg := cfg
	winCfg.Trace = &winTr
	r := mustRunner(t, winCfg)
	// Odd boundaries on purpose: mid-frame cuts, a repeat, and an
	// overshoot past the duration (clamped).
	bounds := []float64{601.5, 1800, 1800, 3777, 3600 * 1.5, 1e9}
	for _, b := range bounds {
		advance(t, r, b)
	}
	if !r.Done() {
		t.Fatalf("runner not done at %v / %v", r.Now(), r.Duration())
	}
	winRes := result(t, r)
	if na, nb := normalized(oneRes), normalized(winRes); !reflect.DeepEqual(na, nb) {
		t.Errorf("windowed result diverges from one-shot:\n%+v\nvs\n%+v", na, nb)
	}
	want, mixed := windowMajor(decodeTrace(t, &oneTr), bounds, cfg.DurationS)
	if !mixed {
		t.Fatal("no window holds records from two groups: the scenario cannot tell window-major from group-major")
	}
	got := decodeTrace(t, &winTr)
	if len(got) != len(want) {
		t.Fatalf("windowed trace has %d records, one-shot %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowed trace record %d is %+v, want %+v", i, got[i], want[i])
		}
	}
}

// windowMajor reorders one-shot trace records into the order a Runner
// advanced through bounds writes them: window by window, groups in order
// within a window, frames in time order within a group. A window holds
// the frames strictly before its boundary (clamped to durationS) and not
// before the previous one. mixed reports whether some window holds
// records from more than one group.
func windowMajor(recs []TraceRecord, bounds []float64, durationS float64) (ordered []TraceRecord, mixed bool) {
	window := func(ts float64) int {
		for k, b := range bounds {
			if ts < math.Min(b, durationS) {
				return k
			}
		}
		return len(bounds)
	}
	ordered = append([]TraceRecord(nil), recs...)
	sort.SliceStable(ordered, func(a, b int) bool {
		wa, wb := window(ordered[a].TimeS), window(ordered[b].TimeS)
		if wa != wb {
			return wa < wb
		}
		if ordered[a].Group != ordered[b].Group {
			return ordered[a].Group < ordered[b].Group
		}
		return ordered[a].Frame < ordered[b].Frame
	})
	for i := 1; i < len(ordered); i++ {
		if window(ordered[i].TimeS) == window(ordered[i-1].TimeS) && ordered[i].Group != ordered[i-1].Group {
			mixed = true
		}
	}
	return ordered, mixed
}

// bipolarWorld scatters static targets in both near-polar bands, where
// the paper orbit's ground tracks converge. Groups evenly phased in one
// plane half an orbit apart pass opposite poles at about the same time,
// so their frames with targets overlap in time.
func bipolarWorld(n int, seed int64) *dataset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := &dataset.Set{Name: "bipolar"}
	for i := 0; i < n; i++ {
		lat := 78 + rng.Float64()*4
		if i%2 == 1 {
			lat = -lat
		}
		s.Targets = append(s.Targets, dataset.Target{
			ID:    i,
			Pos:   geo.LatLon{Lat: lat, Lon: rng.Float64()*360 - 180}.Normalize(),
			Value: 0.5 + 0.5*rng.Float64(),
		})
	}
	return s
}

// TestRunnerMidRunResultRepeatable pins that Result is a pure query: two
// calls at the same boundary agree exactly, and querying mid-run does not
// perturb the final answer.
func TestRunnerMidRunResultRepeatable(t *testing.T) {
	_, cfg := snapWorld()
	r := mustRunner(t, cfg)
	advance(t, r, 3600)
	a := result(t, r)
	b := result(t, r)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated mid-run Result diverges:\n%+v\nvs\n%+v", a, b)
	}
	advance(t, r, cfg.DurationS)
	fin := result(t, r)

	undisturbed := run(t, cfg)
	if na, nb := normalized(fin), normalized(undisturbed); !reflect.DeepEqual(na, nb) {
		t.Errorf("mid-run queries perturbed the final result:\n%+v\nvs\n%+v", na, nb)
	}
}

// TestSnapshotRoundTripDifferential is the acceptance differential: stop
// at a boundary, snapshot, restore into a fresh process-equivalent runner
// (Workers=4, warm start on), continue -- the Result and the concatenated
// trace must match an uninterrupted run exactly (modulo wall-clock
// fields). Boundaries cover early/mid/late cuts and a non-frame-aligned
// instant.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	_, cfg := snapWorld()
	var refTr bytes.Buffer
	ref := cfg
	ref.Trace = &refTr
	refRes := run(t, ref)
	refRecs := decodeTrace(t, &refTr)

	for _, cutS := range []float64{600, 1807.25, 3600, 6321} {
		var pre, post bytes.Buffer
		first := cfg
		first.Trace = &pre
		r := mustRunner(t, first)
		advance(t, r, cutS)
		var snap bytes.Buffer
		if err := r.Snapshot(&snap); err != nil {
			t.Fatalf("cut %v: snapshot: %v", cutS, err)
		}
		r.Close() // the "process" dies here

		second := cfg
		second.Trace = &post
		rr, err := RestoreRunner(second, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("cut %v: restore: %v", cutS, err)
		}
		if rr.Now() != cutS {
			t.Fatalf("cut %v: restored at %v", cutS, rr.Now())
		}
		advance(t, rr, cfg.DurationS)
		res := result(t, rr)
		rr.Close()

		if na, nb := normalized(refRes), normalized(res); !reflect.DeepEqual(na, nb) {
			t.Errorf("cut %v: restored result diverges from uninterrupted:\n%+v\nvs\n%+v", cutS, na, nb)
		}
		joined := bytes.NewBufferString(pre.String() + post.String())
		recs := decodeTrace(t, joined)
		if !reflect.DeepEqual(refRecs, recs) {
			t.Errorf("cut %v: stitched trace diverges: %d vs %d records", cutS, len(refRecs), len(recs))
		}
	}
}

// TestSnapshotResnapshotByteIdentical: restoring and immediately
// re-snapshotting must reproduce the snapshot byte for byte -- the format
// is canonical (sorted cell keys, fixed field order), so equality is
// exact, not structural.
func TestSnapshotResnapshotByteIdentical(t *testing.T) {
	_, cfg := snapWorld()
	r := mustRunner(t, cfg)
	advance(t, r, 3600)
	var a bytes.Buffer
	if err := r.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	rr, err := RestoreRunner(cfg, bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var b bytes.Buffer
	if err := rr.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("re-snapshot differs: %d vs %d bytes", a.Len(), b.Len())
	}
}

// TestSnapshotStripBaseline covers the strip-job snapshot path (the
// baselines have no groups, solver state or RNG, but do carry the
// duration-derived energy finalize).
func TestSnapshotStripBaseline(t *testing.T) {
	w := smallWorld(1000, 81)
	cfg := Config{
		Constellation: constellation.Config{Kind: constellation.HighResOnly, Satellites: 3},
		App:           w, DurationS: 2 * 3600, Seed: 5, Workers: 2,
	}
	refRes := run(t, cfg)

	r := mustRunner(t, cfg)
	advance(t, r, 2500)
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r.Close()
	rr, err := RestoreRunner(cfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	advance(t, rr, cfg.DurationS)
	res := result(t, rr)
	if na, nb := normalized(refRes), normalized(res); !reflect.DeepEqual(na, nb) {
		t.Errorf("strip restore diverges:\n%+v\nvs\n%+v", na, nb)
	}
}

// TestSnapshotRestoreAcrossWorkerCounts: Workers is an execution knob,
// not scenario identity -- a snapshot from a sequential run restores into
// a parallel one (and vice versa) with identical results.
func TestSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	_, cfg := snapWorld()
	refRes := run(t, cfg)

	seq := cfg
	seq.Workers = 1
	r := mustRunner(t, seq)
	advance(t, r, 3600)
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r.Close()

	par := cfg
	par.Workers = 4
	rr, err := RestoreRunner(par, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	advance(t, rr, cfg.DurationS)
	res := result(t, rr)
	if na, nb := normalized(refRes), normalized(res); !reflect.DeepEqual(na, nb) {
		t.Errorf("cross-worker restore diverges:\n%+v\nvs\n%+v", na, nb)
	}
}

// TestSnapshotRejects pins the failure modes: junk, truncation, version
// skew, and -- most importantly -- a scenario digest mismatch, which is
// what stops a snapshot from silently resuming under different physics.
func TestSnapshotRejects(t *testing.T) {
	_, cfg := snapWorld()
	r := mustRunner(t, cfg)
	advance(t, r, 1800)
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreRunner(cfg, strings.NewReader("not a snapshot at all")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := RestoreRunner(cfg, bytes.NewReader(snap.Bytes()[:snap.Len()/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := RestoreRunner(other, bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("digest mismatch (different seed) accepted")
	} else if !strings.Contains(err.Error(), "different scenario") {
		t.Errorf("digest mismatch error unclear: %v", err)
	}

	// Execution knobs must NOT change the digest.
	knobs := cfg
	knobs.Workers = 1
	knobs.DisableWarmStart = true
	if rr, err := RestoreRunner(knobs, bytes.NewReader(snap.Bytes())); err != nil {
		t.Errorf("execution-knob change refused: %v", err)
	} else {
		rr.Close()
	}

	bad := append([]byte(nil), snap.Bytes()...)
	bad[0] ^= 0xff
	if _, err := RestoreRunner(cfg, bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), snap.Bytes()...)
	bad[9] ^= 0xff // version low byte
	if _, err := RestoreRunner(cfg, bytes.NewReader(bad)); err == nil {
		t.Error("version skew accepted")
	}
}

// TestConfigDigestGolden pins the scenario digest against a fixed value:
// the default config's digest is the one older builds computed, so their
// snapshots still restore.
func TestConfigDigestGolden(t *testing.T) {
	_, cfg := snapWorld()
	if got, want := mustRunner(t, cfg).scenarioDigest(), uint64(0x32e319f9a77e7bfb); got != want {
		t.Errorf("default digest %#x, want %#x", got, want)
	}
}

// TestSnapshotBytesGolden pins the snapshot bytes, bitmaps included,
// against fixed FNV-64a hashes: a LowResOnly and a HighResOnly run over a
// moving world, snapshotted at 1.5 h. Strip runs record no wall-clock
// fields, so their bytes repeat run to run; the low-res run sets the seen
// bitmap and the high-res run both, and 3,003 targets leave each bitmap's
// last byte partly unused.
func TestSnapshotBytesGolden(t *testing.T) {
	app := movingWorld(3003, 41, 2*3600)
	for _, c := range []struct {
		name string
		kind constellation.Kind
		want uint64
	}{
		{"low-res-only", constellation.LowResOnly, 0x0b9c08b91394837a},
		{"high-res-only", constellation.HighResOnly, 0x91d39ad924e191c1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Constellation: constellation.Config{Kind: c.kind, Satellites: 4},
				App:           app, DurationS: 2 * 3600, Seed: 9, Workers: 2,
			}
			r := mustRunner(t, cfg)
			advance(t, r, 5400)
			res := result(t, r)
			if res.LowResSeen == 0 || (c.kind == constellation.HighResOnly) != (res.HighResCaptured > 0) {
				t.Fatalf("degenerate run: %d seen, %d captured", res.LowResSeen, res.HighResCaptured)
			}
			var snap bytes.Buffer
			if err := r.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(snap.Bytes())
			if got := h.Sum64(); got != c.want {
				t.Errorf("snapshot of %d bytes hashes to %#x, want %#x", snap.Len(), got, c.want)
			}
		})
	}
}

// TestSnapshotOfFailedOrClosedRunner: poisoned and closed runners refuse
// to snapshot instead of persisting a half-advanced state.
func TestSnapshotOfFailedOrClosedRunner(t *testing.T) {
	_, cfg := snapWorld()
	r := mustRunner(t, cfg)
	r.Close()
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err == nil {
		t.Error("closed runner snapshotted")
	}
}

// snapHeaderLen is the length of a snapshot's header: magic, version,
// flags, scenario digest, position and job count.
const snapHeaderLen = 8 + 2 + 2 + 8 + 8 + 4

// FuzzRestoreRunner feeds arbitrary snapshot bytes to RestoreRunner under
// a fixed small moving world and a 1 h span: every input must yield a
// runner or an error, never a panic, and a restored runner must stand
// within the span, each job at most one frame past its position. The
// seeds are a valid snapshot at 0.5 h and its truncations, then edits of
// it: a recapture registry claiming 2^32-1 keys with none after them, a
// frame cursor past what the replay produces, positions NaN, +Inf, -1 and
// past the span, a wrong job count, and the unused high bits of every
// bitmap's last byte set, which must restore to the valid seed's Result.
func FuzzRestoreRunner(f *testing.F) {
	cfg := Config{
		Constellation:  constellation.Config{Kind: constellation.LeaderFollower, Satellites: 4},
		App:            movingWorld(603, 5, 3600),
		DurationS:      3600,
		Seed:           3,
		RecaptureDedup: true,
	}
	r, err := NewRunner(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := r.Advance(1800); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	// Each job's section as Snapshot writes it: the recapture registry's
	// key count sits before its keys and the trailing trace cursor, and
	// right after the seen bitmap, which follows the captured one. padded
	// is the valid snapshot with the unused high bits of each bitmap's last
	// byte set (603 targets leave five).
	valid := snap.Bytes()
	padded := slices.Clone(valid)
	nb := (len(cfg.App.Targets) + 7) / 8
	unused := byte(0xff) << (len(cfg.App.Targets) % 8)
	capCount, off := 0, snapHeaderLen
	for i, j := range r.jobs {
		var sec bytes.Buffer
		bw := &binWriter{w: &sec}
		j.snapExtra(bw)
		j.state().snapshot(bw)
		keys := len(j.state().capCells)
		count := off + sec.Len() - 8 - 8*keys - 4
		if got := binary.BigEndian.Uint32(valid[count:]); int(got) != keys {
			f.Fatalf("job %d's registry count reads %d at byte %d, want %d", i, got, count, keys)
		}
		if i == 0 {
			capCount = count
		}
		padded[count-1] |= unused
		padded[count-1-nb-4] |= unused
		off += sec.Len()
	}
	jobs := len(r.jobs)
	r.Close()
	restored := func(body []byte) *Result {
		rr, err := RestoreRunner(cfg, bytes.NewReader(body))
		if err != nil {
			f.Fatalf("a valid seed does not restore: %v", err)
		}
		defer rr.Close()
		res, err := rr.Result()
		if err != nil {
			f.Fatal(err)
		}
		return res
	}
	if a, b := restored(valid), restored(padded); !reflect.DeepEqual(a, b) {
		f.Fatalf("set unused bitmap bits change the restored result:\n%+v\nvs\n%+v", b, a)
	}
	edit := func(off int, val []byte) []byte {
		b := slices.Clone(valid)
		copy(b[off:], val)
		return b
	}
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	f.Add(valid)
	for _, n := range []int{0, 8, snapHeaderLen - 1, snapHeaderLen + 3, capCount, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(append(slices.Clone(valid[:capCount]), 0xff, 0xff, 0xff, 0xff))
	const frameCursor = snapHeaderLen + 1 + 4 // job tag, group index
	f.Add(edit(frameCursor, u64(binary.BigEndian.Uint64(valid[frameCursor:])+1)))
	f.Add(edit(frameCursor, u64(math.MaxInt64)))
	const pos = snapHeaderLen - 4 - 8 // before the job count
	for _, v := range []float64{math.NaN(), math.Inf(1), -1, 2 * cfg.DurationS} {
		f.Add(edit(pos, u64(math.Float64bits(v))))
	}
	f.Add(edit(snapHeaderLen-4, binary.BigEndian.AppendUint32(nil, uint32(jobs+1))))
	f.Add(padded)

	f.Fuzz(func(t *testing.T, body []byte) {
		rr, err := RestoreRunner(cfg, bytes.NewReader(body))
		switch {
		case err == nil && rr == nil:
			t.Fatal("no runner and no error")
		case err != nil && rr != nil:
			t.Fatalf("a runner and an error: %v", err)
		case rr == nil:
			return
		}
		defer rr.Close()
		if !(rr.nowS >= 0 && rr.nowS <= cfg.DurationS) {
			t.Fatalf("restored at %v s, outside the %v s span", rr.nowS, cfg.DurationS)
		}
		for i, j := range rr.jobs {
			var ts, step float64
			switch j := j.(type) {
			case *groupJob:
				ts, step = j.ts, j.cadence
			case *stripJob:
				ts, step = j.ts, j.stepS
			}
			if ts > rr.nowS+step {
				t.Fatalf("job %d replayed to %v s, past the restored position %v s by more than a frame", i, ts, rr.nowS)
			}
		}
	})
}
