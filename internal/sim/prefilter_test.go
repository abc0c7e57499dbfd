package sim

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/dataset"
	"eagleeye/internal/geo"
)

// courseThrough returns a moving target that is at p at elapsed time ts:
// it starts distM = speed*ts back along a great circle through p and heads
// toward p. Its Target.PosAt(ts) matches p up to rounding; the properties
// below are judged on Target.PosAt itself.
func courseThrough(rng *rand.Rand, p geo.LatLon, ts float64) dataset.Target {
	speed := 180 + 120*rng.Float64()
	start := geo.Destination(p, 360*rng.Float64(), -speed*ts)
	return dataset.Target{Pos: start, HeadingDeg: geo.InitialBearing(start, p), SpeedMS: speed, Value: 1}
}

// randomFrame returns a leader frame at a random origin (up to 85 degrees
// of latitude, any longitude) flying a random bearing.
func randomFrame(rng *rand.Rand) geo.TangentFrame {
	return geo.TangentFrame{
		Origin:     geo.LatLon{Lat: 170*rng.Float64() - 85, Lon: 360*rng.Float64() - 180},
		BearingDeg: 360 * rng.Float64(),
	}
}

// TestFilterInFramePrefilterSound: filterInFrame's chord test never rejects
// a target whose exact position lies within frameRadius of the frame
// origin, the great-circle test it runs ahead of. Targets are placed on
// the radius itself, a hair inside and outside it, and anywhere inside it,
// around random frames and bearings; the frame sizes span the camera
// catalogue's swaths. The same targets then go through filterInFrame,
// which must keep exactly the targets, in candidate order, that the
// exact-only filter keeps.
func TestFilterInFramePrefilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &dataset.Set{Name: "prefilter", Moving: true}
	const frames, perFrame = 200, 60
	type frameCase struct {
		f    geo.TangentFrame
		w, h float64
		ts   float64
	}
	cases := make([]frameCase, frames)
	for fi := range cases {
		w := 5e3 + 95e3*rng.Float64()
		c := frameCase{f: randomFrame(rng), w: w, h: w * (0.5 + rng.Float64()), ts: 600 + 86400*rng.Float64()}
		cases[fi] = c
		maxD := frameRadius(c.w, c.h)
		for k := 0; k < perFrame; k++ {
			d := maxD * rng.Float64()
			switch k % 4 {
			case 0:
				d = maxD
			case 1:
				d = maxD * (1 - 1e-12)
			case 2:
				d = maxD * (1 + 1e-12)
			}
			s.Targets = append(s.Targets, courseThrough(rng, geo.Destination(c.f.Origin, 360*rng.Float64(), d), c.ts))
		}
	}
	tx := dataset.NewTimedIndex(s, 2, 600)
	st := &runState{index: tx}
	edge := 0
	for fi, c := range cases {
		maxD := frameRadius(c.w, c.h)
		disk := dataset.NewCap(c.f.Origin, maxD)
		cands := make([]int32, perFrame)
		for k := range cands {
			cands[k] = int32(fi*perFrame + k)
		}
		var wantIdx []int32
		var wantPts []geo.Point2
		for _, ci := range cands {
			d := geo.GreatCircleDistance(s.Targets[ci].PosAt(c.ts), c.f.Origin)
			if d > maxD {
				continue
			}
			if d > maxD*(1-1e-9) {
				edge++
			}
			if tx.Outside(ci, c.ts, &disk) {
				t.Fatalf("frame %d: Outside rejects target %d at %.6f m of a %.6f m radius", fi, ci, d, maxD)
			}
			if lp := c.f.ToLocal(s.Targets[ci].PosAt(c.ts)); math.Abs(lp.X) <= c.w/2 && math.Abs(lp.Y) <= c.h/2 {
				wantIdx = append(wantIdx, ci)
				wantPts = append(wantPts, lp)
			}
		}
		idx, pts := st.filterInFrame(cands, c.f, c.w, c.h, c.ts)
		if len(idx) != len(wantIdx) {
			t.Fatalf("frame %d: filterInFrame kept %d targets, exact filter %d", fi, len(idx), len(wantIdx))
		}
		for i := range idx {
			if idx[i] != wantIdx[i] || pts[i] != wantPts[i] {
				t.Fatalf("frame %d: survivor %d is %d %v, exact filter %d %v", fi, i, idx[i], pts[i], wantIdx[i], wantPts[i])
			}
		}
	}
	if edge < frames {
		t.Errorf("only %d targets within 1e-9 of the radius: the boundary is not exercised", edge)
	}
}

// TestExecutePrefilterSound: executeSchedule's chord test never rejects a
// target its footprint test accepts. For random frames and bearings, aims
// anywhere a follower can point (up to 300 km cross-track, a frame's
// length along-track) and swaths across the camera catalogue, targets are
// placed inside the footprint, at its corners and along its edges. Every
// one whose Target.PosAt projects inside the footprint must lie within
// frameRadius(swath, swath) of the aim by a margin, and Outside must keep
// it.
func TestExecutePrefilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &dataset.Set{Name: "prefilter", Moving: true}
	type capture struct {
		f       geo.TangentFrame
		aim     geo.Point2
		swath   float64
		ts      float64
		members []int32
	}
	var caps []capture
	for n := 0; n < 400; n++ {
		c := capture{
			f:     randomFrame(rng),
			aim:   geo.Point2{X: 600e3*rng.Float64() - 300e3, Y: 200e3*rng.Float64() - 100e3},
			swath: 5e3 + 75e3*rng.Float64(),
			ts:    600 + 86400*rng.Float64(),
		}
		half := c.swath / 2 * (1 - 1e-9)
		for k := 0; k < 24; k++ {
			off := geo.Point2{X: half * (2*rng.Float64() - 1), Y: half * (2*rng.Float64() - 1)}
			switch k % 3 {
			case 0: // a corner
				off = geo.Point2{X: math.Copysign(half, off.X), Y: math.Copysign(half, off.Y)}
			case 1: // an edge
				off.X = math.Copysign(half, off.X)
			}
			c.members = append(c.members, int32(len(s.Targets)))
			s.Targets = append(s.Targets, courseThrough(rng, c.f.ToGeodetic(c.aim.Add(off)), c.ts))
		}
		caps = append(caps, c)
	}
	tx := dataset.NewTimedIndex(s, 2, 600)
	inside, worst := 0, math.Inf(-1)
	for n, c := range caps {
		fp := geo.NewRectCentered(c.aim, c.swath, c.swath)
		aim := c.f.ToGeodetic(c.aim)
		reach := frameRadius(c.swath, c.swath)
		disk := dataset.NewCap(aim, reach)
		for _, ci := range c.members {
			pos := s.Targets[ci].PosAt(c.ts)
			if !fp.Contains(c.f.ToLocal(pos)) {
				continue
			}
			inside++
			// How far past the footprint's half-diagonal a contained point
			// lies: the frame-coordinate distortion the 5 km margin of
			// frameRadius absorbs. Off the track frame coordinates
			// overstate distance, so it stays at or below zero.
			worst = math.Max(worst, geo.GreatCircleDistance(pos, aim)-math.Hypot(c.swath, c.swath)/2)
			if tx.Outside(ci, c.ts, &disk) {
				t.Fatalf("capture %d: Outside rejects target %d inside the footprint", n, ci)
			}
		}
	}
	if inside < len(caps)*12 {
		t.Fatalf("only %d placed targets project inside their footprints", inside)
	}
	if worst > 1e3 {
		t.Errorf("a contained point lies %.0f m past the footprint's half-diagonal, want well inside the 5 km margin", worst)
	}
	t.Logf("%d contained targets; largest excess over the half-diagonal %.3f m", inside, worst)
}
