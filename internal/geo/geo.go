// Package geo provides the geodesy substrate used throughout EagleEye:
// WGS-84 constants, coordinate conversions between geodetic and
// Earth-centered Earth-fixed (ECEF) frames, great-circle distances, local
// tangent (East-North-Up) frames, and simple planar footprint geometry.
//
// Conventions: latitudes and longitudes are degrees unless a name says
// otherwise; distances are meters; angles in the math helpers are radians.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// WGS-84 ellipsoid and derived constants.
const (
	// EarthEquatorialRadius is the WGS-84 semi-major axis in meters.
	EarthEquatorialRadius = 6378137.0
	// EarthFlattening is the WGS-84 flattening f = (a-b)/a.
	EarthFlattening = 1.0 / 298.257223563
	// EarthPolarRadius is the WGS-84 semi-minor axis in meters.
	EarthPolarRadius = EarthEquatorialRadius * (1 - EarthFlattening)
	// EarthMeanRadius is the mean Earth radius (IUGG R1) in meters. The
	// spherical approximations in the simulator use this value.
	EarthMeanRadius = 6371008.8
	// EarthMu is the WGS-84 gravitational parameter in m^3/s^2.
	EarthMu = 3.986004418e14
	// EarthJ2 is the second zonal harmonic of the geopotential.
	EarthJ2 = 1.08262668e-3
	// EarthRotationRate is the Earth's sidereal rotation rate in rad/s.
	EarthRotationRate = 7.2921150e-5
	// EarthSurfaceArea is the total Earth surface area in m^2 (spherical,
	// mean radius); the paper quotes ~510 million km^2.
	EarthSurfaceArea = 4 * math.Pi * EarthMeanRadius * EarthMeanRadius
)

// Deg2Rad converts degrees to radians.
func Deg2Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(rad float64) float64 { return rad * 180 / math.Pi }

// WrapLonDeg wraps a longitude in degrees into (-180, 180].
func WrapLonDeg(lon float64) float64 {
	lon = math.Mod(lon, 360)
	switch {
	case lon > 180:
		lon -= 360
	case lon <= -180:
		lon += 360
	}
	return lon
}

// ClampLatDeg clamps a latitude in degrees into [-90, 90].
func ClampLatDeg(lat float64) float64 {
	if lat > 90 {
		return 90
	}
	if lat < -90 {
		return -90
	}
	return lat
}

// LatLon is a geodetic position on the Earth's surface in degrees.
type LatLon struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, (-180, 180]
}

// String implements fmt.Stringer.
func (p LatLon) String() string { return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon) }

// Valid reports whether the point is a plausible geodetic coordinate.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon > -180-1e-9 && p.Lon <= 180+1e-9 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Normalize returns the point with longitude wrapped and latitude clamped.
func (p LatLon) Normalize() LatLon {
	return LatLon{Lat: ClampLatDeg(p.Lat), Lon: WrapLonDeg(p.Lon)}
}

// ErrInvalidLatLon reports an out-of-range geodetic coordinate.
var ErrInvalidLatLon = errors.New("geo: invalid lat/lon")

// Vec3 is a 3-vector in meters (ECEF) or dimensionless (directions).
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v/|v|; the zero vector is returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// AngleBetween returns the angle between v and w in radians, in [0, pi].
func (v Vec3) AngleBetween(w Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// GeodeticToECEF converts a geodetic coordinate plus altitude (meters above
// the WGS-84 ellipsoid) to an ECEF position in meters.
func GeodeticToECEF(p LatLon, altM float64) Vec3 {
	lat := Deg2Rad(p.Lat)
	lon := Deg2Rad(p.Lon)
	sinLat, cosLat := math.Sincos(lat)
	sinLon, cosLon := math.Sincos(lon)
	e2 := EarthFlattening * (2 - EarthFlattening)
	n := EarthEquatorialRadius / math.Sqrt(1-e2*sinLat*sinLat)
	return Vec3{
		X: (n + altM) * cosLat * cosLon,
		Y: (n + altM) * cosLat * sinLon,
		Z: (n*(1-e2) + altM) * sinLat,
	}
}

// ECEFToGeodetic converts an ECEF position in meters to geodetic latitude,
// longitude (degrees) and altitude above the ellipsoid (meters) using
// Bowring's iteration, accurate to well under a millimeter near the surface.
func ECEFToGeodetic(v Vec3) (LatLon, float64) {
	e2 := EarthFlattening * (2 - EarthFlattening)
	p := math.Hypot(v.X, v.Y)
	lon := math.Atan2(v.Y, v.X)
	if p < 1e-9 { // On the polar axis.
		lat := math.Pi / 2
		if v.Z < 0 {
			lat = -lat
		}
		return LatLon{Lat: Rad2Deg(lat), Lon: 0}, math.Abs(v.Z) - EarthPolarRadius
	}
	lat := math.Atan2(v.Z, p*(1-e2))
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := EarthEquatorialRadius / math.Sqrt(1-e2*sinLat*sinLat)
		newLat := math.Atan2(v.Z+e2*n*sinLat, p)
		if math.Abs(newLat-lat) < 1e-13 {
			lat = newLat
			break
		}
		lat = newLat
	}
	sinLat := math.Sin(lat)
	n := EarthEquatorialRadius / math.Sqrt(1-e2*sinLat*sinLat)
	alt := p/math.Cos(lat) - n
	return LatLon{Lat: Rad2Deg(lat), Lon: Rad2Deg(lon)}.Normalize(), alt
}

// GreatCircleDistance returns the spherical (mean-radius) surface distance in
// meters between two geodetic points, using the haversine formula.
func GreatCircleDistance(a, b LatLon) float64 {
	la1, lo1 := Deg2Rad(a.Lat), Deg2Rad(a.Lon)
	la2, lo2 := Deg2Rad(b.Lat), Deg2Rad(b.Lon)
	dLat := la2 - la1
	dLon := lo2 - lo1
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthMeanRadius * math.Asin(math.Sqrt(h))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from north, in [0, 360).
func InitialBearing(a, b LatLon) float64 {
	la1 := Deg2Rad(a.Lat)
	la2 := Deg2Rad(b.Lat)
	dLon := Deg2Rad(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	brg := Rad2Deg(math.Atan2(y, x))
	if brg < 0 {
		brg += 360
	}
	return brg
}

// Destination returns the point reached by travelling distM meters from p
// along the given initial bearing (degrees clockwise from north) on the
// mean-radius sphere.
func Destination(p LatLon, bearingDeg, distM float64) LatLon {
	delta := distM / EarthMeanRadius
	theta := Deg2Rad(bearingDeg)
	la1 := Deg2Rad(p.Lat)
	sinLa1, cosLa1 := math.Sin(la1), math.Cos(la1)
	sinD, cosD := math.Sin(delta), math.Cos(delta)
	sinLa2 := sinLa1*cosD + cosLa1*sinD*math.Cos(theta)
	// Rounding can carry a course through a pole just past ±1, where
	// Asin returns NaN; clamp as GreatCircleDistance does.
	if sinLa2 > 1 {
		sinLa2 = 1
	} else if sinLa2 < -1 {
		sinLa2 = -1
	}
	la2 := math.Asin(sinLa2)
	y := math.Sin(theta) * sinD * cosLa1
	x := cosD - sinLa1*sinLa2
	lo2 := Deg2Rad(p.Lon) + math.Atan2(y, x)
	return LatLon{Lat: Rad2Deg(la2), Lon: Rad2Deg(lo2)}.Normalize()
}

// CrossTrackDistance returns the signed cross-track distance in meters from
// point p to the great circle through a with initial bearing bearingDeg.
// Positive values are to the right of the track.
func CrossTrackDistance(p, a LatLon, bearingDeg float64) float64 {
	d13 := GreatCircleDistance(a, p) / EarthMeanRadius
	b13 := Deg2Rad(InitialBearing(a, p))
	b12 := Deg2Rad(bearingDeg)
	return math.Asin(math.Sin(d13)*math.Sin(b13-b12)) * EarthMeanRadius
}

// AlongTrackDistance returns the along-track distance in meters from a to the
// closest point on the track (through a at bearingDeg) to p.
func AlongTrackDistance(p, a LatLon, bearingDeg float64) float64 {
	d13 := GreatCircleDistance(a, p) / EarthMeanRadius
	xt := CrossTrackDistance(p, a, bearingDeg) / EarthMeanRadius
	cosD13 := math.Cos(d13)
	// cos xt is never 0, so the quotient is finite or NaN: xt is an asin,
	// within rounding of [-π/2, π/2], and the cosines of the float64s
	// nearest ±π/2 are 6.1e-17 (-1.6e-16 one step past, where ·R/R
	// rounds up at the track's pole).
	r := cosD13 / math.Cos(xt)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	at := math.Acos(r) * EarthMeanRadius
	// Sign: along-track is negative if p is behind a relative to the bearing.
	b13 := Deg2Rad(InitialBearing(a, p))
	b12 := Deg2Rad(bearingDeg)
	if math.Cos(b13-b12) < 0 {
		at = -at
	}
	return at
}
