package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{-180, -90, -45, 0, 30, 90, 179.999} {
		if got := Rad2Deg(Deg2Rad(d)); !almostEq(got, d, 1e-12) {
			t.Errorf("round trip %v -> %v", d, got)
		}
	}
}

func TestWrapLonDeg(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, 180}, {-180, 180}, {181, -179}, {-181, 179},
		{360, 0}, {540, 180}, {-540, 180}, {720.5, 0.5},
	}
	for _, c := range cases {
		if got := WrapLonDeg(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("WrapLonDeg(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// The fast path for longitudes already in (-180, 180] must return
	// what the math.Mod formula returns, bit for bit: signed zeros, the
	// interval's edges and the floats beside them, whole turns, huge and
	// infinite values, NaN, and random longitudes over two turns.
	modWrap := func(lon float64) float64 {
		lon = math.Mod(lon, 360)
		switch {
		case lon > 180:
			lon -= 360
		case lon <= -180:
			lon += 360
		}
		return lon
	}
	inf := math.Inf(1)
	ins := []float64{math.NaN(), inf, -inf}
	for _, v := range []float64{0, 180, 360, 540, 1e300} {
		for _, x := range []float64{v, math.Nextafter(v, -inf), math.Nextafter(v, inf)} {
			ins = append(ins, x, -x)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		ins = append(ins, rng.Float64()*1440-720)
	}
	for _, in := range ins {
		got, want := WrapLonDeg(in), modWrap(in)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("WrapLonDeg(%v) = %v (%#x), math.Mod path %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestClampLatDeg(t *testing.T) {
	if ClampLatDeg(95) != 90 || ClampLatDeg(-95) != -90 || ClampLatDeg(45) != 45 {
		t.Fatal("ClampLatDeg misbehaved")
	}
}

func TestLatLonValid(t *testing.T) {
	if !(LatLon{45, 120}).Valid() {
		t.Error("valid point reported invalid")
	}
	if (LatLon{95, 0}).Valid() {
		t.Error("lat 95 reported valid")
	}
	if (LatLon{math.NaN(), 0}).Valid() {
		t.Error("NaN lat reported valid")
	}
}

func TestGeodeticECEFKnownPoints(t *testing.T) {
	// Equator / prime meridian at zero altitude: X = semi-major axis.
	v := GeodeticToECEF(LatLon{0, 0}, 0)
	if !almostEq(v.X, EarthEquatorialRadius, 1e-6) || !almostEq(v.Y, 0, 1e-6) || !almostEq(v.Z, 0, 1e-6) {
		t.Errorf("equator ECEF = %+v", v)
	}
	// North pole: Z = polar radius.
	v = GeodeticToECEF(LatLon{90, 0}, 0)
	if !almostEq(v.Z, EarthPolarRadius, 1e-6) {
		t.Errorf("north pole Z = %v, want %v", v.Z, EarthPolarRadius)
	}
	// 90E on the equator: Y = semi-major axis.
	v = GeodeticToECEF(LatLon{0, 90}, 0)
	if !almostEq(v.Y, EarthEquatorialRadius, 1e-6) {
		t.Errorf("90E Y = %v", v.Y)
	}
}

func TestECEFRoundTripProperty(t *testing.T) {
	f := func(latSeed, lonSeed, altSeed uint32) bool {
		lat := float64(latSeed%18000)/100 - 90  // [-90, 90)
		lon := float64(lonSeed%36000)/100 - 180 // [-180, 180)
		alt := float64(altSeed % 1000000)       // [0, 1000 km)
		p := LatLon{lat, lon}.Normalize()
		q, a := ECEFToGeodetic(GeodeticToECEF(p, alt))
		if !almostEq(a, alt, 1e-3) {
			return false
		}
		if !almostEq(q.Lat, p.Lat, 1e-7) {
			return false
		}
		// Longitude undefined at the poles.
		if math.Abs(p.Lat) < 89.999 && !almostEq(WrapLonDeg(q.Lon-p.Lon), 0, 1e-7) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGreatCircleDistanceKnown(t *testing.T) {
	// Quarter of the Earth's circumference: equator to pole.
	d := GreatCircleDistance(LatLon{0, 0}, LatLon{90, 0})
	want := math.Pi / 2 * EarthMeanRadius
	if !almostEq(d, want, 1) {
		t.Errorf("pole distance = %v, want %v", d, want)
	}
	// Symmetric.
	a, b := LatLon{48.85, 2.35}, LatLon{40.71, -74.0}
	if !almostEq(GreatCircleDistance(a, b), GreatCircleDistance(b, a), 1e-6) {
		t.Error("distance not symmetric")
	}
	// Paris-NYC is about 5837 km.
	if d := GreatCircleDistance(a, b); d < 5.7e6 || d > 6.0e6 {
		t.Errorf("Paris-NYC distance = %v", d)
	}
	if GreatCircleDistance(a, a) != 0 {
		t.Error("self distance not zero")
	}
}

func TestDestinationInverseOfBearingDistance(t *testing.T) {
	f := func(latSeed, lonSeed, brgSeed, distSeed uint32) bool {
		p := LatLon{float64(latSeed%16000)/100 - 80, float64(lonSeed%36000)/100 - 180}.Normalize()
		brg := float64(brgSeed % 360)
		dist := float64(distSeed%2000000) + 10 // up to 2000 km
		q := Destination(p, brg, dist)
		return almostEq(GreatCircleDistance(p, q), dist, 1) &&
			almostEq(math.Abs(WrapLonDeg(InitialBearing(p, q)-brg)), 0, 0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCrossAlongTrack(t *testing.T) {
	origin := LatLon{0, 0}
	// Track heading due north. A point due east is pure cross-track.
	east := Destination(origin, 90, 50000)
	xt := CrossTrackDistance(east, origin, 0)
	if !almostEq(xt, 50000, 50) {
		t.Errorf("cross-track = %v, want ~50000", xt)
	}
	at := AlongTrackDistance(east, origin, 0)
	if !almostEq(at, 0, 50) {
		t.Errorf("along-track = %v, want ~0", at)
	}
	// A point due north is pure along-track.
	north := Destination(origin, 0, 70000)
	if at := AlongTrackDistance(north, origin, 0); !almostEq(at, 70000, 50) {
		t.Errorf("along-track north = %v", at)
	}
	if xt := CrossTrackDistance(north, origin, 0); !almostEq(xt, 0, 50) {
		t.Errorf("cross-track north = %v", xt)
	}
	// A point behind has negative along-track.
	south := Destination(origin, 180, 30000)
	if at := AlongTrackDistance(south, origin, 0); at > -29000 {
		t.Errorf("along-track south = %v, want ~-30000", at)
	}
}

func TestVec3Algebra(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %+v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %+v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 2}).Unit(); got != (Vec3{0, 0, 1}) {
		t.Errorf("Unit = %+v", got)
	}
	if got := (Vec3{}).Unit(); got != (Vec3{}) {
		t.Errorf("Unit zero = %+v", got)
	}
	if got := (Vec3{1, 0, 0}).AngleBetween(Vec3{0, 1, 0}); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("AngleBetween = %v", got)
	}
	if got := (Vec3{1, 0, 0}).AngleBetween(Vec3{1, 0, 0}); !almostEq(got, 0, 1e-7) {
		t.Errorf("AngleBetween same = %v", got)
	}
}

func TestCrossProductOrthogonalProperty(t *testing.T) {
	f := func(a, b, c, d, e, g int16) bool {
		v := Vec3{float64(a), float64(b), float64(c)}
		w := Vec3{float64(d), float64(e), float64(g)}
		x := v.Cross(w)
		return almostEq(x.Dot(v), 0, 1e-6) && almostEq(x.Dot(w), 0, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRectCentered(Point2{0, 0}, 10, 4)
	if r.Width() != 10 || r.Height() != 4 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Center() != (Point2{0, 0}) {
		t.Errorf("center = %v", r.Center())
	}
	if r.Area() != 40 {
		t.Errorf("area = %v", r.Area())
	}
	if !r.Contains(Point2{5, 2}) { // corner inclusive
		t.Error("corner not contained")
	}
	if r.Contains(Point2{5.1, 0}) {
		t.Error("outside point contained")
	}
	if !r.Valid() {
		t.Error("valid rect reported invalid")
	}
	if (Rect{Min: Point2{1, 0}, Max: Point2{0, 1}}).Valid() {
		t.Error("invalid rect reported valid")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Point2{0, 0}, Max: Point2{2, 2}}
	b := Rect{Min: Point2{1, 1}, Max: Point2{3, 3}}
	c := Rect{Min: Point2{2, 2}, Max: Point2{4, 4}} // touching corner
	d := Rect{Min: Point2{5, 5}, Max: Point2{6, 6}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	if !a.Intersects(c) {
		t.Error("touching rects reported disjoint")
	}
	if a.Intersects(d) {
		t.Error("disjoint rects reported intersecting")
	}
}

func TestTangentFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		f := TangentFrame{
			Origin:     LatLon{rng.Float64()*140 - 70, rng.Float64()*360 - 180}.Normalize(),
			BearingDeg: rng.Float64() * 360,
		}
		p := Point2{rng.Float64()*100000 - 50000, rng.Float64()*100000 - 50000}
		g := f.ToGeodetic(p)
		q := f.ToLocal(g)
		// Within a 100 km frame the flat approximation is good to ~100 m.
		if p.Dist(q) > 150 {
			t.Fatalf("frame round trip error %v for p=%v at origin %v", p.Dist(q), p, f.Origin)
		}
	}
}

func TestPoint2Algebra(t *testing.T) {
	p := Point2{3, 4}
	if p.Norm() != 5 {
		t.Errorf("Norm = %v", p.Norm())
	}
	if p.Add(Point2{1, 1}) != (Point2{4, 5}) {
		t.Error("Add wrong")
	}
	if p.Sub(Point2{1, 1}) != (Point2{2, 3}) {
		t.Error("Sub wrong")
	}
	if p.Scale(2) != (Point2{6, 8}) {
		t.Error("Scale wrong")
	}
	if p.Dist(Point2{0, 0}) != 5 {
		t.Error("Dist wrong")
	}
}

func TestEarthSurfaceArea(t *testing.T) {
	// The paper quotes ~510 million km^2.
	km2 := EarthSurfaceArea / 1e6
	if km2 < 505e6 || km2 > 515e6 {
		t.Errorf("surface area = %v km^2", km2)
	}
}

func TestStringers(t *testing.T) {
	if s := (LatLon{1, 2}).String(); s == "" {
		t.Error("empty LatLon string")
	}
	if s := (Point2{1, 2}).String(); s == "" {
		t.Error("empty Point2 string")
	}
	if s := (Rect{}).String(); s == "" {
		t.Error("empty Rect string")
	}
}

// destinationOracle is the spherical destination formula with every term
// evaluated from scratch, and sin(lat2) clamped to [-1, 1] as every other
// asin argument in the package is. It is Destination's bit-identity
// oracle.
func destinationOracle(p LatLon, bearingDeg, distM float64) LatLon {
	delta := distM / EarthMeanRadius
	theta := Deg2Rad(bearingDeg)
	la1 := Deg2Rad(p.Lat)
	lo1 := Deg2Rad(p.Lon)
	sinLa2 := math.Sin(la1)*math.Cos(delta) + math.Cos(la1)*math.Sin(delta)*math.Cos(theta)
	sinLa2 = math.Max(-1, math.Min(1, sinLa2))
	la2 := math.Asin(sinLa2)
	y := math.Sin(theta) * math.Sin(delta) * math.Cos(la1)
	x := math.Cos(delta) - math.Sin(la1)*sinLa2
	lo2 := lo1 + math.Atan2(y, x)
	return LatLon{Lat: Rad2Deg(la2), Lon: Rad2Deg(lo2)}.Normalize()
}

func sameBits(a, b LatLon) bool {
	return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) &&
		math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
}

// TestDestinationBitIdentical pins Destination to the from-scratch
// formula bit for bit (moving-target positions feed index cells and
// capture tests, so a one-ulp drift could change a result): a grid of
// poles, antimeridian and zero-distance cases, courses through a pole,
// then 1M random start points, bearings and distances.
func TestDestinationBitIdentical(t *testing.T) {
	check := func(p LatLon, brg, d float64) {
		t.Helper()
		want := destinationOracle(p, brg, d)
		if got := Destination(p, brg, d); !sameBits(got, want) {
			t.Fatalf("Destination(%v, %v, %v) = %#v, oracle %#v", p, brg, d, got, want)
		}
	}
	lats := []float64{-90, -89.9999999, -45, 0, 45, 89.9999999, 90}
	lons := []float64{-180, -179.9999999, -90, 0, 90, 179.9999999, 180}
	brgs := []float64{0, 45, 90, 180, 270, 359.9999999, -90, 720}
	dists := []float64{0, 1e-9, 1, 180 * 600, 2e7, math.Pi * EarthMeanRadius, -5e5}
	for _, lat := range lats {
		for _, lon := range lons {
			for _, brg := range brgs {
				for _, d := range dists {
					check(LatLon{Lat: lat, Lon: lon}, brg, d)
				}
			}
		}
	}
	// Courses through a pole, where rounding carries sin(lat2) past 1:
	// an airliner heading a rounding error west of north from 86.56 N
	// (its position after 1800 s once came out NaN), and meridian
	// courses reaching each pole exactly.
	poleCourses := []struct {
		p      LatLon
		brg, d float64
	}{
		{LatLon{Lat: 86.55758937980923, Lon: -153.1345928791959}, -4.134721085902571e-14, 212.655069504936 * 1800},
		{LatLon{Lat: 45, Lon: 10}, 0, math.Pi / 4 * EarthMeanRadius},
		{LatLon{Lat: -45, Lon: -170}, 180, math.Pi / 4 * EarthMeanRadius},
		{LatLon{Lat: 0, Lon: 0}, 0, math.Pi / 2 * EarthMeanRadius},
	}
	for _, c := range poleCourses {
		check(c.p, c.brg, c.d)
		got := Destination(c.p, c.brg, c.d)
		if !(got.Lat >= -90 && got.Lat <= 90) {
			t.Errorf("Destination(%v, %v, %v) latitude %v, want within [-90, 90]", c.p, c.brg, c.d, got.Lat)
		}
	}

	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(edges []float64, lo, hi float64) float64 {
		if rng.Intn(8) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return lo + (hi-lo)*rng.Float64()
	}
	for i := 0; i < n; i++ {
		p := LatLon{Lat: pick(lats, -90, 90), Lon: pick(lons, -180, 180)}
		brg := pick(brgs, 0, 360)
		// Log-spread distances from 0 m to past antipodal reach.
		d := math.Expm1(rng.Float64() * 17)
		if rng.Intn(8) == 0 {
			d = dists[rng.Intn(len(dists))]
		}
		check(p, brg, d)
	}
}

// TestToLocalBitIdentical pins ToLocal, which computes the distance,
// bearing and cross-track arc once, to the CrossTrackDistance and
// AlongTrackDistance pair it stands for, bit for bit: frames at the
// poles, on the antimeridian and on the equator against coincident
// points, antipodes, the poles, points across the antimeridian and the
// poles of the track, where the cross-track arc is a right angle; then
// 1M random frames and points, alternately within 300 km of the origin
// and anywhere on the globe. The track's pole is as close as float64
// comes to cos xt == 0: the arc rounds to either side of pi/2, and
// math.Cos has no float64 zero, so the guard for it never fires.
func TestToLocalBitIdentical(t *testing.T) {
	check := func(f TangentFrame, p LatLon) {
		t.Helper()
		got := f.ToLocal(p)
		want := Point2{X: CrossTrackDistance(p, f.Origin, f.BearingDeg), Y: AlongTrackDistance(p, f.Origin, f.BearingDeg)}
		if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			t.Fatalf("%+v.ToLocal(%v) = %#v, oracle %#v", f, p, got, want)
		}
	}
	origins := []LatLon{
		{Lat: 0, Lon: 0}, {Lat: 90, Lon: 0}, {Lat: -90, Lon: 45}, {Lat: 0, Lon: 180},
		{Lat: 0, Lon: -180}, {Lat: 45, Lon: 179.9999999}, {Lat: -30, Lon: -179.9999999},
	}
	brgs := []float64{0, 45, 90, 180, 270, 359.9999999, -90, 720}
	for _, o := range origins {
		for _, brg := range brgs {
			f := TangentFrame{Origin: o, BearingDeg: brg}
			pts := []LatLon{
				o,                               // coincident
				{Lat: -o.Lat, Lon: o.Lon + 180}, // antipode
				{Lat: 90}, {Lat: -90},           // poles
				{Lat: o.Lat, Lon: o.Lon + 0.0000001}, // across the antimeridian from ±180
				{Lat: o.Lat, Lon: -o.Lon},
				Destination(o, brg+90, math.Pi/2*EarthMeanRadius), // the track's poles
				Destination(o, brg-90, math.Pi/2*EarthMeanRadius),
				Destination(o, brg, 1e-3), Destination(o, brg+180, 50e3),
			}
			for _, p := range pts {
				check(f, p)
			}
		}
	}

	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		o := LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		f := TangentFrame{Origin: o, BearingDeg: rng.Float64() * 360}
		p := LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		if i%2 == 0 {
			p = Destination(o, rng.Float64()*360, rng.Float64()*300e3)
		}
		check(f, p)
	}
}
