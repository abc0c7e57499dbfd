package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"time"

	"eagleeye/internal/constellation"
)

// Snapshot format (version 1). A snapshot is deliberately small: it
// stores only what replay cannot rebuild -- the per-job accumulators
// (counters, bitmaps, energy budgets, the recapture registry, the trace
// cursor) plus two cursors per job (frames processed, events applied).
// Everything with floating-point phase -- ephemeris steppers, solver
// warm-start state, the per-frame RNG -- is restored by replaying the
// already-processed frame boundaries with accounting suppressed:
//
//   - orbit.Stepper advances are pure float recurrences, so replaying
//     the same number of Advance calls reproduces the phase bit-exactly
//     (the 256-step resync makes the cost of drift moot as well);
//   - the warm-start solver state is not stored: a restored runner
//     schedules each group's first frame after the restore cold and is
//     warm again from the next one. Restore reproduces the uninterrupted run when
//     those cold solves reach the warm run's schedules, which the restore
//     differentials pin; it does not need warm and cold whole runs to
//     agree, and they need not (an equal-objective tie may resolve either
//     way on a long run);
//   - the RNG is reseeded per processed frame from frameSeed, so there
//     is no stream position beyond the frame index.
//
// The header carries a digest of the scenario (constellation, dataset
// content, detector, tiling, duration, seed, events -- everything that
// shapes the deterministic result, excluding execution knobs like
// Workers or DisableWarmStart); restoring against a different scenario
// is refused instead of silently diverging.
const (
	snapMagic   = "EESIMSNP"
	snapVersion = 1
)

// binWriter is a little sticky-error big-endian encoder.
type binWriter struct {
	w   io.Writer
	n   int64
	buf [8]byte
	err error
}

func (b *binWriter) raw(p []byte) {
	if b.err != nil {
		return
	}
	n, err := b.w.Write(p)
	b.n += int64(n)
	b.err = err
}

func (b *binWriter) u64(v uint64) {
	binary.BigEndian.PutUint64(b.buf[:], v)
	b.raw(b.buf[:8])
}

func (b *binWriter) u32(v uint32) {
	binary.BigEndian.PutUint32(b.buf[:4], v)
	b.raw(b.buf[:4])
}

func (b *binWriter) u16(v uint16) {
	binary.BigEndian.PutUint16(b.buf[:2], v)
	b.raw(b.buf[:2])
}

func (b *binWriter) u8(v uint8) {
	b.buf[0] = v
	b.raw(b.buf[:1])
}

func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) str(s string) {
	b.u32(uint32(len(s)))
	b.raw([]byte(s))
}

// binReader mirrors binWriter.
type binReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (b *binReader) raw(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = io.ReadFull(b.r, p)
}

func (b *binReader) u64() uint64 {
	b.raw(b.buf[:8])
	if b.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b.buf[:8])
}

func (b *binReader) u32() uint32 {
	b.raw(b.buf[:4])
	if b.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b.buf[:4])
}

func (b *binReader) u16() uint16 {
	b.raw(b.buf[:2])
	if b.err != nil {
		return 0
	}
	return binary.BigEndian.Uint16(b.buf[:2])
}

func (b *binReader) u8() uint8 {
	b.raw(b.buf[:1])
	if b.err != nil {
		return 0
	}
	return b.buf[0]
}

func (b *binReader) i64() int64   { return int64(b.u64()) }
func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }

// configDigest hashes the scenario identity a snapshot must match:
// everything that shapes the deterministic result. Execution knobs
// (Workers, which is pinned byte-identical, and DisableWarmStart, which
// changes solver paths and, on an equal-objective tie, a schedule) and
// I/O wiring (Trace, Metrics) are excluded on purpose -- a snapshot taken
// on a 4-worker warm run restores into a sequential cold one, which then
// continues as a cold run would.
func configDigest(cfg Config, cons *constellation.Constellation) uint64 {
	h := fnv.New64a()
	bw := &binWriter{w: h}
	cc := cons.Config
	bw.str("eagleeye-scenario-v1")
	bw.i64(int64(cc.Kind))
	bw.i64(int64(cc.Satellites))
	bw.i64(int64(cc.FollowersPerGroup))
	bw.f64(cc.SeparationM)
	bw.f64(cc.Orbit.AltitudeM)
	bw.f64(cc.Orbit.InclinationDeg)
	bw.f64(cc.Orbit.RAANDeg)
	bw.i64(cc.Orbit.Epoch.UnixNano())
	bw.i64(int64(cc.Planes))
	for _, cam := range []struct{ sw, al, gsd, off float64 }{
		{cc.LowRes.SwathM, cc.LowRes.AlongTrackM, cc.LowRes.GSDM, cc.LowRes.MaxOffNadirDeg},
		{cc.HighRes.SwathM, cc.HighRes.AlongTrackM, cc.HighRes.GSDM, cc.HighRes.MaxOffNadirDeg},
	} {
		bw.f64(cam.sw)
		bw.f64(cam.al)
		bw.f64(cam.gsd)
		bw.f64(cam.off)
	}
	bw.str(cfg.App.Name)
	if cfg.App.Moving {
		bw.u8(1)
	} else {
		bw.u8(0)
	}
	bw.u32(uint32(len(cfg.App.Targets)))
	for i := range cfg.App.Targets {
		t := &cfg.App.Targets[i]
		bw.i64(int64(t.ID))
		bw.f64(t.Pos.Lat)
		bw.f64(t.Pos.Lon)
		bw.f64(t.SpeedMS)
		bw.f64(t.HeadingDeg)
		bw.f64(t.Value)
		bw.f64(t.AreaKM2)
		bw.f64(t.AppearS)
		bw.f64(t.VanishS)
	}
	name := "default"
	if cfg.Scheduler != nil {
		name = cfg.Scheduler.Name()
	}
	bw.str(name)
	bw.str(cfg.Detector.Name)
	bw.f64(cfg.Detector.PerTileS)
	bw.f64(cfg.Detector.Recall)
	bw.f64(cfg.Detector.Precision)
	bw.i64(int64(cfg.Tiling.FramePx))
	bw.i64(int64(cfg.Tiling.TilePx))
	flags := uint8(0)
	if cfg.NoClustering {
		flags |= 1
	}
	if cfg.ClusterGreedy {
		flags |= 2
	}
	if cfg.RecaptureDedup {
		flags |= 4
	}
	bw.u8(flags)
	bw.f64(cfg.RecallOverride)
	bw.f64(cfg.DurationS)
	bw.i64(cfg.Seed)
	bw.f64(cfg.SlewRateDegS)
	bw.f64(cfg.ComputeDelayS)
	bw.u32(uint32(len(cfg.Events)))
	for _, ev := range cfg.Events {
		bw.f64(ev.AtS)
		bw.u8(uint8(ev.Kind))
		bw.i64(int64(ev.Group))
		bw.i64(int64(ev.Follower))
	}
	return h.Sum64()
}

// snapshot serializes the job's accumulators.
func (st *runState) snapshot(bw *binWriter) {
	r := st.res
	bw.i64(int64(r.Frames))
	bw.i64(int64(r.FramesWithTargets))
	bw.i64(int64(r.Detections))
	bw.i64(int64(r.Clusters))
	bw.i64(int64(r.Captures))
	for _, c := range r.TargetsPerImage.Buckets {
		bw.i64(c)
	}
	bw.i64(int64(r.TargetsPerImage.Max))
	bw.i64(int64(r.SchedSolves))
	bw.i64(int64(r.SchedWallTotal))
	bw.i64(int64(r.SchedWallMax))
	bw.i64(int64(r.MissedDeadline))
	bw.i64(int64(r.SchedNodes))
	bw.i64(int64(r.SchedIters))
	bw.i64(int64(r.SchedPivotWall))
	bw.i64(int64(r.ClusterNodes))
	bw.i64(int64(r.ClusterIters))
	bw.i64(int64(r.ClusterPivotWall))
	bw.i64(int64(r.RecaptureSuppressed))
	bw.i64(int64(r.EventsApplied))
	bw.i64(int64(r.SatsFailed))
	bw.i64(int64(r.LeaderReelections))
	bw.f64(r.CrosslinkBytes)
	for _, b := range []float64{
		st.leaderB.CameraJ, st.leaderB.ADACSJ, st.leaderB.ComputeJ, st.leaderB.TXJ, st.leaderB.CrosslinkJ,
		st.folB.CameraJ, st.folB.ADACSJ, st.folB.ComputeJ, st.folB.TXJ, st.folB.CrosslinkJ,
	} {
		bw.f64(b)
	}
	n := len(st.cfg.App.Targets)
	st.captured.encode(bw, n)
	st.seen.encode(bw, n)
	// The recapture registry is a set; keys are written sorted so the
	// snapshot bytes are deterministic.
	keys := make([]int64, 0, len(st.capCells))
	for k := range st.capCells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	bw.u32(uint32(len(keys)))
	for _, k := range keys {
		bw.i64(k)
	}
	bw.i64(st.traceEmitted)
}

// restore loads the accumulators written by snapshot.
func (st *runState) restore(br *binReader) {
	r := st.res
	r.Frames = int(br.i64())
	r.FramesWithTargets = int(br.i64())
	r.Detections = int(br.i64())
	r.Clusters = int(br.i64())
	r.Captures = int(br.i64())
	for i := range r.TargetsPerImage.Buckets {
		r.TargetsPerImage.Buckets[i] = br.i64()
	}
	r.TargetsPerImage.Max = int(br.i64())
	r.SchedSolves = int(br.i64())
	r.SchedWallTotal = time.Duration(br.i64())
	r.SchedWallMax = time.Duration(br.i64())
	r.MissedDeadline = int(br.i64())
	r.SchedNodes = int(br.i64())
	r.SchedIters = int(br.i64())
	r.SchedPivotWall = time.Duration(br.i64())
	r.ClusterNodes = int(br.i64())
	r.ClusterIters = int(br.i64())
	r.ClusterPivotWall = time.Duration(br.i64())
	r.RecaptureSuppressed = int(br.i64())
	r.EventsApplied = int(br.i64())
	r.SatsFailed = int(br.i64())
	r.LeaderReelections = int(br.i64())
	r.CrosslinkBytes = br.f64()
	st.leaderB.CameraJ = br.f64()
	st.leaderB.ADACSJ = br.f64()
	st.leaderB.ComputeJ = br.f64()
	st.leaderB.TXJ = br.f64()
	st.leaderB.CrosslinkJ = br.f64()
	st.folB.CameraJ = br.f64()
	st.folB.ADACSJ = br.f64()
	st.folB.ComputeJ = br.f64()
	st.folB.TXJ = br.f64()
	st.folB.CrosslinkJ = br.f64()
	st.captured.decode(br, len(st.cfg.App.Targets))
	st.seen.decode(br, len(st.cfg.App.Targets))
	n := int(br.u32())
	for i := 0; i < n && br.err == nil; i++ {
		st.capCells[br.i64()] = true
	}
	st.traceEmitted = br.i64()
}

const (
	jobTagGroup = 1
	jobTagStrip = 2
)

func (j *groupJob) snapExtra(bw *binWriter) {
	bw.u8(jobTagGroup)
	bw.u32(uint32(j.gi))
	bw.i64(int64(j.frameIdx))
	bw.u32(uint32(j.evCursor))
}

func (j *groupJob) restoreExtra(br *binReader) error {
	if tag := br.u8(); br.err == nil && tag != jobTagGroup {
		return fmt.Errorf("sim: snapshot job tag %d, want group", tag)
	}
	if gi := int(br.u32()); br.err == nil && gi != j.gi {
		return fmt.Errorf("sim: snapshot group %d out of order (want %d)", gi, j.gi)
	}
	j.skipTo = int(br.i64())
	j.evReplayTo = int(br.u32())
	return br.err
}

func (j *groupJob) verifyReplay() error {
	if j.frameIdx != j.skipTo {
		return fmt.Errorf("sim: group %d replay produced %d frames, snapshot had %d", j.gi, j.frameIdx, j.skipTo)
	}
	if j.evCursor < j.evReplayTo {
		return fmt.Errorf("sim: group %d replay applied %d events, snapshot had %d", j.gi, j.evCursor, j.evReplayTo)
	}
	return nil
}

func (j *stripJob) snapExtra(bw *binWriter) {
	bw.u8(jobTagStrip)
	bw.u32(uint32(j.si))
	bw.i64(int64(j.frameIdx))
	bw.u32(uint32(j.evCursor))
}

func (j *stripJob) restoreExtra(br *binReader) error {
	if tag := br.u8(); br.err == nil && tag != jobTagStrip {
		return fmt.Errorf("sim: snapshot job tag %d, want strip", tag)
	}
	if si := int(br.u32()); br.err == nil && si != j.si {
		return fmt.Errorf("sim: snapshot satellite %d out of order (want %d)", si, j.si)
	}
	j.skipTo = int(br.i64())
	j.evReplayTo = int(br.u32())
	return br.err
}

func (j *stripJob) verifyReplay() error {
	if j.frameIdx != j.skipTo {
		return fmt.Errorf("sim: satellite %d replay produced %d frames, snapshot had %d", j.si, j.frameIdx, j.skipTo)
	}
	if j.evCursor < j.evReplayTo {
		return fmt.Errorf("sim: satellite %d replay applied %d events, snapshot had %d", j.si, j.evCursor, j.evReplayTo)
	}
	return nil
}

// Snapshot writes a versioned binary snapshot of the full run state at
// the current window boundary. Restoring it (RestoreRunner) and
// continuing produces byte-identical Results and trace bytes to never
// having stopped.
func (r *Runner) Snapshot(w io.Writer) error {
	if r.failed != nil {
		return fmt.Errorf("sim: snapshot of failed runner: %w", r.failed)
	}
	if r.closed {
		return fmt.Errorf("sim: runner is closed")
	}
	bw := &binWriter{w: w}
	bw.raw([]byte(snapMagic))
	bw.u16(snapVersion)
	bw.u16(0) // flags, reserved
	bw.u64(r.scenarioDigest())
	bw.f64(r.nowS)
	bw.u32(uint32(len(r.jobs)))
	for _, j := range r.jobs {
		j.snapExtra(bw)
		j.state().snapshot(bw)
	}
	if bw.err != nil {
		return fmt.Errorf("sim: snapshot: %w", bw.err)
	}
	if r.sm != nil {
		r.sm.checkpointWrites.Inc()
		r.sm.checkpointBytes.Add(bw.n)
	}
	return nil
}

// RestoreRunner rebuilds a Runner from cfg and a snapshot produced by
// Snapshot under the same scenario. The snapshot's accumulators are
// loaded, then the already-processed frame boundaries are replayed with
// accounting suppressed to rebuild ephemeris phase and event topology
// bit-exactly; the restored runner then continues as if it had never
// stopped. cfg may differ from the snapshotting run in execution knobs
// only (Workers, warm-start, Trace, Metrics); any scenario difference is
// refused via the header digest.
func RestoreRunner(cfg Config, src io.Reader) (*Runner, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			r.Close()
		}
	}()

	br := &binReader{r: src}
	var magic [8]byte
	br.raw(magic[:])
	if br.err == nil && string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("sim: not a snapshot (bad magic)")
	}
	if v := br.u16(); br.err == nil && v != snapVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, this build reads %d", v, snapVersion)
	}
	br.u16() // flags
	if d, want := br.u64(), r.scenarioDigest(); br.err == nil && d != want {
		return nil, fmt.Errorf("sim: snapshot was taken under a different scenario (digest %016x, want %016x)", d, want)
	}
	nowS := br.f64()
	if br.err == nil && (math.IsNaN(nowS) || nowS < 0 || nowS > r.cfg.DurationS) {
		return nil, fmt.Errorf("sim: snapshot position %v outside [0,%v]", nowS, r.cfg.DurationS)
	}
	if n := int(br.u32()); br.err == nil && n != len(r.jobs) {
		return nil, fmt.Errorf("sim: snapshot has %d jobs, scenario builds %d", n, len(r.jobs))
	}
	for _, j := range r.jobs {
		if err := j.restoreExtra(br); err != nil {
			return nil, err
		}
		j.state().restore(br)
	}
	if br.err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", br.err)
	}

	// Replay: advance every job to the snapshot boundary. Frames below
	// the watermark move steppers and apply events but touch no
	// accumulators (the snapshot holds their effects).
	errs := make([]error, len(r.jobs))
	runParallel(r.workerCount(), len(r.jobs), func(i int) {
		errs[i] = r.jobs[i].run(nowS)
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot replay: %w", err)
		}
	}
	for _, j := range r.jobs {
		if err := j.verifyReplay(); err != nil {
			return nil, err
		}
	}
	r.nowS = nowS
	if r.sm != nil {
		// The run that took the snapshot counted the restored totals: mark
		// them reported, so this runner reports only what it runs.
		for i, p := range published {
			r.sm.reported[i] = r.total(p.read)
		}
		r.sm.checkpointRestores.Inc()
	}
	ok = true
	return r, nil
}
