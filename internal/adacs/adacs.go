// Package adacs models the attitude determination and control system of an
// EagleEye satellite: the slew-rate law MaxAng, the Eq. 1 actuation-time
// solve (minimum time to repoint from one ground target to the next while
// the satellite flies on), and the Eq. 2 off-nadir time-window solve (the
// interval during which a ground target can be imaged within the maximum
// off-nadir angle).
//
// All frame-local geometry follows the paper's convention: positions are in
// a ground tangent plane with Y along the flight direction; the satellite's
// sub-point moves along +Y at the ground speed; pointing to a ground point P
// from altitude h corresponds to an off-nadir angle atan(|P - N|/h), where N
// is the current sub-point.
package adacs

import (
	"fmt"
	"math"

	"eagleeye/internal/geo"
)

// SlewModel is the paper's ADACS actuation model:
// MaxAng(t) = RateDegS * (t - OverheadS), clamped at zero. The overhead
// aggregates pointing acceleration/deceleration (the paper adds 0.67 s per
// point action for a 3 deg/s wheel accelerating at 9 deg/s^2).
type SlewModel struct {
	RateDegS  float64 // peak body slew rate, degrees per second
	OverheadS float64 // per-maneuver accel/decel overhead, seconds
}

// PaperSlew returns the paper's default ADACS: 3 deg/s with 0.67 s overhead.
func PaperSlew() SlewModel { return SlewModel{RateDegS: 3, OverheadS: 0.67} }

// HighEndSlew returns the paper's high-end reaction wheel: 10 deg/s.
// The same 9 deg/s^2 acceleration gives a ~1.1 s overhead..
func HighEndSlew() SlewModel { return SlewModel{RateDegS: 10, OverheadS: 1.11} }

// Validate reports whether the model is physically plausible.
func (m SlewModel) Validate() error {
	if m.RateDegS <= 0 {
		return fmt.Errorf("adacs: slew rate %v must be positive", m.RateDegS)
	}
	if m.OverheadS < 0 {
		return fmt.Errorf("adacs: overhead %v must be non-negative", m.OverheadS)
	}
	return nil
}

// MaxAngDeg returns the maximum angle in degrees the satellite can rotate in
// dt seconds: MaxAng(t) = rate * (t - overhead), never negative.
func (m SlewModel) MaxAngDeg(dtS float64) float64 {
	eff := dtS - m.OverheadS
	if eff <= 0 {
		return 0
	}
	return m.RateDegS * eff
}

// MinTimeS returns the minimum time in seconds needed to rotate by angleDeg:
// the inverse of MaxAngDeg. Zero-angle maneuvers still pay the overhead if
// the satellite must settle; the paper models a capture at the same pointing
// as free, so MinTimeS(0) = 0.
func (m SlewModel) MinTimeS(angleDeg float64) float64 {
	if angleDeg <= 0 {
		return 0
	}
	return angleDeg/m.RateDegS + m.OverheadS
}

// Pointing describes where a satellite's sensor boresight intersects the
// ground, in frame-local coordinates.
type Pointing struct {
	Ground geo.Point2 // boresight ground intercept, meters
}

// OffNadirDeg returns the off-nadir angle in degrees when the satellite's
// sub-point is at subPt, the boresight ground intercept at target, and the
// satellite flies at altM meters: atan(|target - subPt| / alt). This is the
// paper's OffNadir(sloc, sp) in the locally-flat approximation.
func OffNadirDeg(subPt, target geo.Point2, altM float64) float64 {
	if altM <= 0 {
		return math.Inf(1)
	}
	return geo.Rad2Deg(math.Atan2(target.Dist(subPt), altM))
}

// PointingAngleDeg returns the body rotation angle in degrees between
// pointing at ground points p1 and p2 from the sub-point positions sub1 and
// sub2 (the satellite moves between captures), at altitude altM. The paper's
// Eq. 1 approximates this as the angular separation of the two lines of
// sight |P1-N1|/alt vs |P2-N2|/alt; we compute the true 3D angle between the
// two boresight vectors, which reduces to the paper's form for small angles.
func PointingAngleDeg(sub1, p1, sub2, p2 geo.Point2, altM float64) float64 {
	v1 := geo.Vec3{X: p1.X - sub1.X, Y: p1.Y - sub1.Y, Z: -altM}
	v2 := geo.Vec3{X: p2.X - sub2.X, Y: p2.Y - sub2.Y, Z: -altM}
	return geo.Rad2Deg(v1.AngleBetween(v2))
}

// ActuationTimeS solves the paper's Eq. 1: the minimum time dt >= 0 such
// that the satellite, which points at ground point p1 at time t1 with its
// sub-point at sub1 and advances along +Y at groundSpeed m/s, can point at
// ground point p2 at time t1+dt:
//
//	angle(p1 viewed from sub(t1), p2 viewed from sub(t1+dt)) <= MaxAng(dt).
//
// The left side varies with dt because the satellite keeps moving, so the
// equation is solved numerically by bisection on dt (the right side grows
// linearly at rate >= 0 while the left side changes at most at the angular
// rate of the satellite's own motion, so a root exists and is unique for
// practical geometries).
func ActuationTimeS(m SlewModel, sub1, p1, p2 geo.Point2, groundSpeedMS, altM float64) float64 {
	dt, _ := actuation(m, sub1, p1, p2, groundSpeedMS, altM, 0, math.Inf(-1), math.Inf(1))
	return dt
}

// ArrivalS is Eq. 1 as the schedulers use it: the earliest time inside
// the imaging window [w0, w1] at which the satellite, pointing at p1 at
// time t with its sub-point at sub1, can point at p2 -- t+ActuationTimeS
// clamped up to w0 -- and false when that time is past w1. It returns
// exactly what that clamp returns, bit for bit, but stops the bisection
// as soon as the window decides the answer.
func ArrivalS(m SlewModel, sub1, p1, p2 geo.Point2, groundSpeedMS, altM, t, w0, w1 float64) (float64, bool) {
	dt, cut := actuation(m, sub1, p1, p2, groundSpeedMS, altM, t, w0, w1)
	if cut == cutPastW1 {
		return 0, false
	}
	arr := t + dt
	if cut == cutAtW0 || arr < w0 {
		arr = w0
	}
	if arr > w1 {
		return 0, false
	}
	return arr, true
}

// Early stops of actuation's bisection.
const (
	cutNone   = iota // dt is the solve's answer
	cutAtW0          // the arrival t+dt is below w0
	cutPastW1        // the arrival t+dt is past w1
)

// actuation is the one Eq. 1 bisection, shared by ActuationTimeS (an
// unbounded window) and ArrivalS. For an arrival at t+dt inside [w0, w1]
// it stops at cutAtW0 once t+hi < w0 and at cutPastW1 once t+lo > w1.
// Both stops leave the answer unchanged: inside the bracket [0, 1e4] the
// midpoints neither overflow nor leave it, so hi only shrinks, lo only
// grows, the final hi stays between them, and float addition is
// monotone, so t+lo <= t+final <= t+hi. The stop at w0 is strict: where
// t+final equals w0 the clamp keeps t+final, which may be the zero of the
// other sign.
func actuation(m SlewModel, sub1, p1, p2 geo.Point2, groundSpeedMS, altM, t, w0, w1 float64) (float64, int) {
	need := func(dt float64) float64 {
		sub2 := geo.Point2{X: sub1.X, Y: sub1.Y + groundSpeedMS*dt}
		return PointingAngleDeg(sub1, p1, sub2, p2, altM)
	}
	// If already pointing at the target, no actuation is needed.
	if need(0) < 1e-9 {
		return 0, cutNone
	}
	// Find an upper bound where MaxAng(dt) >= need(dt).
	lo, hi := 0.0, m.OverheadS+need(0)/m.RateDegS
	for i := 0; i < 60 && m.MaxAngDeg(hi) < need(hi); i++ {
		hi *= 2
		if hi > 1e4 {
			return math.Inf(1), cutNone // unreachable within any practical horizon
		}
	}
	bounded := 0 <= hi && hi <= 1e4
	for i := 0; i < 80; i++ {
		if bounded {
			if t+hi < w0 {
				return hi, cutAtW0
			}
			if t+lo > w1 {
				return hi, cutPastW1
			}
		}
		mid := (lo + hi) / 2
		// Once the midpoint rounds to an end of the bracket, this step
		// leaves a bracket whose midpoint is that same end, so every later
		// step repeats it: the bracket is final.
		final := mid == lo || mid == hi
		if m.MaxAngDeg(mid) >= need(mid) {
			hi = mid
		} else {
			lo = mid
		}
		if final {
			break
		}
	}
	return hi, cutNone
}

// TimeWindow solves the paper's Eq. 2: the interval of times [t0, t1]
// (seconds relative to "now") during which a satellite whose sub-point is
// currently at sub and advances along +Y at groundSpeed m/s can image the
// ground point p within the maximum off-nadir angle maxOffNadirDeg from
// altitude altM. ok is false when the target is never within the cone
// (|cross-track| alone exceeds the reach).
//
// Geometry: at time t the sub-point is N(t) = sub + (0, v t); the constraint
// |p - N(t)| <= alt * tan(maxOffNadir) is a quadratic in t.
func TimeWindow(sub, p geo.Point2, groundSpeedMS, altM, maxOffNadirDeg float64) (t0, t1 float64, ok bool) {
	if groundSpeedMS <= 0 || altM <= 0 {
		return 0, 0, false
	}
	reach := altM * math.Tan(geo.Deg2Rad(maxOffNadirDeg))
	dx := p.X - sub.X
	dy := p.Y - sub.Y
	disc := reach*reach - dx*dx
	if disc < 0 {
		return 0, 0, false // cross-track offset alone exceeds the cone
	}
	half := math.Sqrt(disc)
	t0 = (dy - half) / groundSpeedMS
	t1 = (dy + half) / groundSpeedMS
	return t0, t1, true
}

// WindowLengthS returns the duration of the imaging window for a target at
// cross-track offset xtM: 2*sqrt(reach^2 - xt^2)/v, or 0 if out of reach.
// A nadir target at the paper's parameters (475 km, 11 deg, 7.3 km/s) has a
// ~25 s window; the paper's Fig. 6 shows a 15 s window at moderate offsets.
func WindowLengthS(xtM, groundSpeedMS, altM, maxOffNadirDeg float64) float64 {
	reach := altM * math.Tan(geo.Deg2Rad(maxOffNadirDeg))
	disc := reach*reach - xtM*xtM
	if disc < 0 || groundSpeedMS <= 0 {
		return 0
	}
	return 2 * math.Sqrt(disc) / groundSpeedMS
}
