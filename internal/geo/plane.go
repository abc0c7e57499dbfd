package geo

import (
	"fmt"
	"math"
)

// Point2 is a point in a local tangent plane, in meters. The convention in
// frame-local geometry is X = cross-track (right of flight direction) and
// Y = along-track (direction of flight).
type Point2 struct{ X, Y float64 }

// Add returns p + q.
func (p Point2) Add(q Point2) Point2 { return Point2{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point2) Sub(q Point2) Point2 { return Point2{p.X - q.X, p.Y - q.Y} }

// Scale returns s*p.
func (p Point2) Scale(s float64) Point2 { return Point2{s * p.X, s * p.Y} }

// Norm returns |p|.
func (p Point2) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns |p - q|.
func (p Point2) Dist(q Point2) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// String implements fmt.Stringer.
func (p Point2) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle in a local tangent plane, in meters.
// Min is the lower-left corner, Max the upper-right.
type Rect struct {
	Min, Max Point2
}

// NewRectCentered returns a w × h rectangle centered on c.
func NewRectCentered(c Point2, w, h float64) Rect {
	return Rect{
		Min: Point2{c.X - w/2, c.Y - h/2},
		Max: Point2{c.X + w/2, c.Y + h/2},
	}
}

// Width returns the rectangle's extent in X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's extent in Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point2 {
	return Point2{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Area returns the rectangle's area; degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// Contains reports whether p lies inside r (inclusive of edges, with a small
// tolerance so that points generated exactly on rectangle edges count).
func (r Rect) Contains(p Point2) bool {
	const eps = 1e-9
	return p.X >= r.Min.X-eps && p.X <= r.Max.X+eps &&
		p.Y >= r.Min.Y-eps && p.Y <= r.Max.Y+eps
}

// Intersects reports whether r and s overlap (touching edges count).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Valid reports whether Min <= Max in both axes.
func (r Rect) Valid() bool { return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y }

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v - %v]", r.Min, r.Max) }

// TangentFrame is a local flat-Earth frame anchored at Origin with the
// Y axis pointing along bearing BearingDeg (the flight direction) and the
// X axis to its right. Within a ~100 km leader frame, the flat approximation
// has error below 0.1%, which is what the frame-local scheduling geometry in
// the paper's Eqs. 1-2 needs.
type TangentFrame struct {
	Origin     LatLon
	BearingDeg float64
}

// ToLocal projects a geodetic point into the frame: X is
// CrossTrackDistance and Y AlongTrackDistance from the origin on the
// frame's bearing, bit for bit. The distance, bearing and cross-track
// arc they share are computed once, by the same expressions in the same
// order.
func (f TangentFrame) ToLocal(p LatLon) Point2 {
	d13 := GreatCircleDistance(f.Origin, p) / EarthMeanRadius
	b13 := Deg2Rad(InitialBearing(f.Origin, p))
	b12 := Deg2Rad(f.BearingDeg)
	xt := math.Asin(math.Sin(d13)*math.Sin(b13-b12)) * EarthMeanRadius
	r := math.Cos(d13) / math.Cos(xt/EarthMeanRadius) // cos xt != 0: see AlongTrackDistance
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	at := math.Acos(r) * EarthMeanRadius
	if math.Cos(b13-b12) < 0 {
		at = -at
	}
	return Point2{X: xt, Y: at}
}

// ToGeodetic maps a local point back to a geodetic coordinate.
func (f TangentFrame) ToGeodetic(p Point2) LatLon {
	along := Destination(f.Origin, f.BearingDeg, p.Y)
	// Bearing of the track at the along-track point: great-circle bearings
	// rotate with meridian convergence, so recompute the track direction at
	// the far point from the back-bearing to the origin.
	trackBrg := f.BearingDeg
	if math.Abs(p.Y) > 1 {
		back := InitialBearing(along, f.Origin)
		if p.Y > 0 {
			trackBrg = math.Mod(back+180, 360)
		} else {
			trackBrg = back
		}
	}
	return Destination(along, math.Mod(trackBrg+90, 360), p.X)
}
