package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eagleeye/internal/geo"
	"eagleeye/internal/orbit"
)

// Frame-query lookahead. A leader frame's query -- the candidates near
// the leader's sub-point, the frame centre ahead of it, and the targets
// inside the frame in detection order -- depends only on the leader's
// ephemeris, the frame time and the shared index, never on an earlier
// frame's schedule. So while the frame loops run a span (Runner.Advance
// runs its windows hour by hour), one helper goroutine computes the
// group jobs' frame queries ahead of them on a P the worker pool leaves
// idle, job by job in job order, which gives it a head start on jobs
// 1..n while job 0 runs; a run of one group starts no helper.
//
// Help-first: every frame has a slot, and whoever claims it first
// computes it. The helper claims a free slot, computes it and marks it
// done; the loop uses a done slot's result, claims a free one and
// computes it inline, and waits (a short spin, then yielding) only for a
// slot the helper is computing. The loop never parks on the helper.
// Each frame is computed exactly once, by one pure function of the
// stepper state, the frame time and the index, and the loop does all
// accounting in frame order, so results, traces and counters are the
// same whoever computed a frame.

// footprint is the geometry of a job's frame query: a w x h frame
// (cross-track by along-track) centred ahead metres along the heading
// from the sub-point, whose candidates come from a probe of radius qr
// around the sub-point.
type footprint struct {
	w, h, qr, ahead float64
}

// frameResult is one frame query's outcome: how many candidates the
// index returned, and when there were any, the frame and the targets
// inside it with their frame positions, in detection order.
type frameResult struct {
	cands int
	frame geo.TangentFrame
	idx   []int32
	pts   []geo.Point2
}

// frameQuery runs the frame query of a satellite at stp's sample time
// ts: the probe around its sub-point, then, if the probe found
// candidates, its state, the frame centre and filterInFrame, whose
// survivors it appends to sc's idx/pts scratch. The frame loops, the
// lookahead helper and the strip jobs all run it.
func (sc *queryScratch) frameQuery(fp *footprint, stp *orbit.Stepper, ts float64) frameResult {
	nadir := stp.SubPoint()
	cands := sc.near(nadir, fp.qr, ts)
	fq := frameResult{cands: len(cands)}
	if len(cands) == 0 {
		return fq
	}
	s := stp.State()
	center := s.SubPoint
	if fp.ahead != 0 {
		center = geo.Destination(s.SubPoint, s.HeadingDeg, fp.ahead)
	}
	fq.frame = geo.TangentFrame{Origin: center, BearingDeg: s.HeadingDeg}
	fq.idx, fq.pts = sc.filterInFrame(cands, nadir, fp.qr, fq.frame, fp.w, fp.h, ts)
	return fq
}

// Slot states. The helper moves a slot free -> ahead -> done, the loop
// free -> inline; both leave free only by a compare-and-swap.
const (
	slotFree uint32 = iota
	slotAhead
	slotDone
	slotInline
)

// querySlot is one frame's place in a span's lookahead.
type querySlot struct {
	state atomic.Uint32
	res   frameResult // the helper's result, once state is slotDone
}

// spinLimit is how many times the loop polls a slot the helper is
// computing before it starts yielding its thread between polls.
const spinLimit = 64

// take returns the helper's result for the slot, waiting for it if the
// helper is computing it, or false after claiming a free slot for the
// loop to compute inline. jm, when set, counts a helper's result and the
// time spent waiting for it.
func (s *querySlot) take(jm *jobMetrics) (frameResult, bool) {
	var start time.Time
	for spins := 0; ; spins++ {
		switch s.state.Load() {
		case slotDone:
			if jm != nil {
				jm.framesAhead.Inc()
				if !start.IsZero() {
					jm.queryWaitNS.Add(int64(time.Since(start)))
				}
			}
			return s.res, true
		case slotFree:
			if s.state.CompareAndSwap(slotFree, slotInline) {
				return frameResult{}, false
			}
		default:
			if jm != nil && start.IsZero() {
				start = time.Now()
			}
			if spins >= spinLimit {
				runtime.Gosched()
			}
		}
	}
}

// spanSlots is a group job's lookahead for one span: a slot for each
// frame from first on that the helper may compute, and a copy of the
// job's leader state at the span's start, which only the helper reads
// and advances. The slots are reused across spans.
type spanSlots struct {
	first  int
	slots  []querySlot
	skipTo int
	lead   orbit.Stepper
	fresh  bool
	ts     float64
}

// prepare lays out the slots of the span that ends at to: the job's
// frames strictly before to and before its next pending event (which may
// re-elect the leader), from its next frame on. It reports whether any
// of them is past the restore watermark, which only such frames query.
func (a *spanSlots) prepare(j *groupJob, to float64) bool {
	a.slots = a.slots[:0]
	if j.dark {
		return false
	}
	end := to
	if j.evCursor < len(j.events) {
		end = min(end, j.events[j.evCursor].AtS)
	}
	n := 0
	for ts := j.ts; ts < end; ts += j.cadence {
		n++
	}
	if n == 0 || j.frameIdx+n <= j.skipTo {
		return false
	}
	if cap(a.slots) < n {
		a.slots = make([]querySlot, n)
	}
	a.slots = a.slots[:n]
	clear(a.slots)
	a.first, a.skipTo = j.frameIdx, j.skipTo
	a.lead, a.fresh, a.ts = *j.lead, j.leadFresh, j.ts
	return true
}

// slot returns frame k's slot, or nil when the span has none for it.
func (a *spanSlots) slot(k int) *querySlot {
	if i := k - a.first; i >= 0 && i < len(a.slots) {
		return &a.slots[i]
	}
	return nil
}

// lookahead is the runner's frame-query helper: one goroutine per span,
// joined before the span's index retirement. Its scratch's idx/pts grow
// append-only through a span, so every done slot's result stays valid
// until the next span resets them.
type lookahead struct {
	sc   queryScratch
	jobs []*groupJob // this span's jobs with slots, in job order
	stop atomic.Bool
	wg   sync.WaitGroup
	// starts counts the helpers started; tests read it.
	starts int
}

// start prepares the slots of every group job that runs the span ending
// at to (a job with an error in errs runs no more) and starts the
// helper. It starts nothing when the span's workers leave no P idle
// (one P among them), where the helper could only take turns with the
// loops; for a run of one group, where the helper gets no head start
// and only races its loop; or when no job has a frame to query in the
// span.
func (la *lookahead) start(jobs []simJob, errs []error, to float64, workers int) bool {
	groups := 0
	for _, j := range jobs {
		if _, ok := j.(*groupJob); ok {
			groups++
		}
	}
	if groups < 2 || workers >= runtime.GOMAXPROCS(0) {
		return false
	}
	la.jobs = la.jobs[:0]
	for i, j := range jobs {
		if g, ok := j.(*groupJob); ok && errs[i] == nil && g.ahead.prepare(g, to) {
			la.jobs = append(la.jobs, g)
		}
	}
	if len(la.jobs) == 0 {
		return false
	}
	la.sc.idx, la.sc.pts = la.sc.idx[:0], la.sc.pts[:0]
	la.stop.Store(false)
	la.starts++
	la.wg.Add(1)
	go la.run()
	return true
}

// run computes the prepared frames in job and frame order, stepping a
// copy of each leader through every frame as the loop steps the leader,
// until it has covered them all or wait asks it to stop.
func (la *lookahead) run() {
	defer la.wg.Done()
	for _, j := range la.jobs {
		a := &j.ahead
		lead, fresh, ts := a.lead, a.fresh, a.ts
		for i := range a.slots {
			if la.stop.Load() {
				return
			}
			k := a.first + i
			if k > 0 {
				if fresh {
					fresh = false
				} else {
					lead.Advance()
				}
			}
			if s := &a.slots[i]; k >= a.skipTo && s.state.CompareAndSwap(slotFree, slotAhead) {
				s.res = la.sc.frameQuery(&j.fp, &lead, ts)
				s.state.Store(slotDone)
			}
			ts += j.cadence
		}
	}
}

// wait stops the helper, joins it and clears the span's slots, so no
// query runs beside what follows (TimedIndex.Retire) and no later loop
// reads a stale slot.
func (la *lookahead) wait() {
	la.stop.Store(true)
	la.wg.Wait()
	for _, j := range la.jobs {
		j.ahead.slots = j.ahead.slots[:0]
	}
	la.jobs = la.jobs[:0]
}
