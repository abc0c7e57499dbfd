package sim

import (
	"eagleeye/internal/constellation"
	"eagleeye/internal/orbit"
)

// stripJob handles one satellite of the homogeneous baselines: it
// continuously images its nadir strip; a target is covered when it falls
// inside the swath. Consecutive frames tile the ground track, so the loop
// walks the track in long steps with a swath-wide, step-long footprint.
// Like groupJob it is persistent and windowed; a fault event (either
// kind -- there is no group structure to degrade) retires the satellite
// at the frame boundary and freezes its energy accounting there.
type stripJob struct {
	st      *runState
	si      int
	sat     *constellation.Satellite
	highRes bool
	swath   float64
	stepS   float64
	fp      footprint
	stp     *orbit.Stepper

	events     []Event
	evCursor   int
	evReplayTo int

	dark     bool
	darkAtS  float64
	frameIdx int
	ts       float64
	skipTo   int
}

func newStripJob(st *runState, si int, sat *constellation.Satellite, events []Event) *stripJob {
	swath := sat.LowRes.SwathM
	highRes := false
	if !sat.HasLowRes() {
		swath = sat.HighRes.SwathM
		highRes = true
	}
	stepS := 50e3 / sat.Prop.GroundSpeedMS() // 50 km along-track steps
	stepLen := sat.Prop.GroundSpeedMS() * stepS
	return &stripJob{
		st: st, si: si, sat: sat,
		highRes: highRes,
		swath:   swath,
		stepS:   stepS,
		fp:      footprint{w: swath, h: stepLen, qr: frameRadius(swath, stepLen)},
		stp:     sat.Prop.NewStepper(0, stepS),
		events:  events,
	}
}

func (j *stripJob) state() *runState { return j.st }
func (j *stripJob) close()           {}

func (j *stripJob) applyEvent(ev Event) {
	if j.dark {
		// Same-boundary duplicates: an already-retired satellite cannot
		// fail again, so consume the event without counting it.
		j.evCursor++
		return
	}
	st := j.st
	count := j.evCursor >= j.evReplayTo
	j.dark = true
	j.darkAtS = j.ts
	if count {
		st.res.SatsFailed++
		st.countEvent(ev.Kind)
	}
	j.evCursor++
}

func (j *stripJob) run(untilS float64) error {
	st := j.st
	for !j.dark && j.ts < untilS {
		ts := j.ts
		for j.evCursor < len(j.events) && j.events[j.evCursor].AtS <= ts {
			j.applyEvent(j.events[j.evCursor])
		}
		if j.dark {
			return nil
		}
		replay := j.frameIdx < j.skipTo
		if j.frameIdx > 0 {
			j.stp.Advance()
		}
		j.frameIdx++
		j.ts = ts + j.stepS
		if replay {
			continue
		}
		st.res.Frames++
		// Empty-frame fast path: most ocean/desert steps see no
		// candidates, so the query probes the index around the cheap
		// sub-point before computing the full state and tangent frame.
		// Strip jobs get no lookahead: their loop is the query.
		st.q.idx, st.q.pts = st.q.idx[:0], st.q.pts[:0]
		fq := st.q.frameQuery(&j.fp, j.stp, ts)
		st.cnt[cntCandidates+countID(queryFrame)] += int64(fq.cands)
		idx := fq.idx
		if len(idx) == 0 {
			continue
		}
		st.res.FramesWithTargets++
		for _, ci := range idx {
			st.seen.set(ci)
			if j.highRes {
				st.captured.set(ci)
			}
		}
	}
	return nil
}

// finalize books the strip satellite's analytic imaging energy for the
// elapsed span directly into the aggregate (pro-rated to the failure
// boundary if the satellite went dark): continuous imaging along the
// track. High-res strip satellites capture only -- they run no ML
// detection -- and book to the follower-role budget; low-res satellites
// detect on every frame and book to the leader/mono budget. Booking at
// aggregation time (instead of mutating job state) keeps Result
// repeatable mid-run; at full duration the sums are bit-identical to
// booking per job, because budget merges add job totals in the same
// order.
func (j *stripJob) finalize(agg *runState, elapsedS float64) {
	aliveS := elapsedS
	if j.dark && j.darkAtS < aliveS {
		aliveS = j.darkAtS
	}
	frames := aliveS / (j.swath / j.sat.Prop.GroundSpeedMS())
	if j.highRes {
		agg.folB.Capture(int(frames))
	} else {
		agg.leaderB.Capture(int(frames))
		agg.leaderB.Compute(frames * j.st.cfg.Tiling.FrameTimeS(j.st.cfg.Detector))
	}
}
