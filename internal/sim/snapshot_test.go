package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
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
// and duplicate boundaries -- produces the same Result and trace stream as
// the one-shot Run.
func TestRunnerWindowedMatchesOneShot(t *testing.T) {
	_, cfg := snapWorld()
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
	for _, b := range []float64{601.5, 1800, 1800, 3777, 3600 * 1.5, 1e9} {
		advance(t, r, b)
	}
	if !r.Done() {
		t.Fatalf("runner not done at %v / %v", r.Now(), r.Duration())
	}
	winRes := result(t, r)
	if na, nb := normalized(oneRes), normalized(winRes); !reflect.DeepEqual(na, nb) {
		t.Errorf("windowed result diverges from one-shot:\n%+v\nvs\n%+v", na, nb)
	}
	ta := decodeTrace(t, &oneTr)
	tb := decodeTrace(t, &winTr)
	if !reflect.DeepEqual(ta, tb) {
		t.Errorf("windowed trace diverges: %d vs %d records", len(ta), len(tb))
	}
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

// TestConfigDigestGolden pins the scenario digest against fixed values.
// The default config's digest is the one older builds computed, so their
// snapshots of unsharded runs still restore. The sharded digest carries
// the "shard-v2" tag: sharded snapshots from builds whose 1x1 frames drew
// detections from a derived shard seed are rejected, not replayed into a
// different timeline.
func TestConfigDigestGolden(t *testing.T) {
	_, cfg := snapWorld()
	if got, want := mustRunner(t, cfg).scenarioDigest(), uint64(0x32e319f9a77e7bfb); got != want {
		t.Errorf("default digest %#x, want %#x", got, want)
	}
	cfg.ShardTargets = 48
	if got, want := mustRunner(t, cfg).scenarioDigest(), uint64(0x4bb7aad7b7c20050); got != want {
		t.Errorf("sharded digest %#x, want %#x", got, want)
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
