package adacs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eagleeye/internal/geo"
)

const (
	altM    = 475e3
	vGround = 7300.0
)

func TestSlewValidate(t *testing.T) {
	if err := PaperSlew().Validate(); err != nil {
		t.Errorf("paper slew invalid: %v", err)
	}
	if err := (SlewModel{RateDegS: 0}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (SlewModel{RateDegS: 3, OverheadS: -1}).Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestMaxAngMatchesPaperFormula(t *testing.T) {
	// Paper: MaxAng(t) = 3 * (t - 0.67) deg/s.
	m := PaperSlew()
	if got := m.MaxAngDeg(1.67); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("MaxAng(1.67) = %v, want 3", got)
	}
	if got := m.MaxAngDeg(0.5); got != 0 {
		t.Errorf("MaxAng below overhead = %v, want 0", got)
	}
	if got := m.MaxAngDeg(10.67); math.Abs(got-30) > 1e-9 {
		t.Errorf("MaxAng(10.67) = %v, want 30", got)
	}
}

func TestMinTimeInverseOfMaxAng(t *testing.T) {
	f := func(angleSeed uint16) bool {
		m := PaperSlew()
		angle := float64(angleSeed%9000)/100 + 0.01 // (0, 90]
		dt := m.MinTimeS(angle)
		return math.Abs(m.MaxAngDeg(dt)-angle) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if PaperSlew().MinTimeS(0) != 0 {
		t.Error("MinTimeS(0) should be free")
	}
}

func TestOffNadir(t *testing.T) {
	sub := pt(0, 0)
	if got := OffNadirDeg(sub, sub, altM); got != 0 {
		t.Errorf("nadir angle = %v", got)
	}
	// A target exactly one altitude away horizontally is 45 deg off-nadir.
	if got := OffNadirDeg(sub, pt(altM, 0), altM); math.Abs(got-45) > 1e-9 {
		t.Errorf("45-deg case = %v", got)
	}
	if got := OffNadirDeg(sub, pt(1, 1), 0); !math.IsInf(got, 1) {
		t.Errorf("zero altitude = %v, want +Inf", got)
	}
	// Paper's 11-deg max off-nadir at 475 km reaches ~92 km from nadir.
	reach := altM * math.Tan(geo.Deg2Rad(11))
	if reach < 85e3 || reach > 100e3 {
		t.Errorf("11-deg reach = %v m", reach)
	}
	if got := OffNadirDeg(sub, pt(reach, 0), altM); math.Abs(got-11) > 1e-6 {
		t.Errorf("reach angle = %v, want 11", got)
	}
}

func TestPointingAngle(t *testing.T) {
	sub := pt(0, 0)
	// Same boresight: zero angle.
	if got := PointingAngleDeg(sub, pt(5e3, 5e3), sub, pt(5e3, 5e3), altM); got > 1e-9 {
		t.Errorf("identical pointing angle = %v", got)
	}
	// Symmetric +-x targets: angle = 2*atan(x/alt).
	x := 50e3
	want := 2 * geo.Rad2Deg(math.Atan2(x, altM))
	got := PointingAngleDeg(sub, pt(-x, 0), sub, pt(x, 0), altM)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("symmetric angle = %v, want %v", got, want)
	}
}

func TestActuationTimeZeroForSameTarget(t *testing.T) {
	m := PaperSlew()
	sub := pt(0, 0)
	p := pt(10e3, 20e3)
	// Pointing at p, then "repointing" at p while stationary would be 0; but
	// the satellite moves, so the angle changes slightly - require small.
	dt := ActuationTimeS(m, sub, p, p, 0, altM) // stationary: truly zero
	if dt != 0 {
		t.Errorf("stationary same-target dt = %v", dt)
	}
}

func TestActuationTimeMonotoneInSeparation(t *testing.T) {
	m := PaperSlew()
	sub := pt(0, 0)
	p1 := pt(0, 0)
	prev := -1.0
	for _, x := range []float64{5e3, 20e3, 50e3, 90e3} {
		dt := ActuationTimeS(m, sub, p1, pt(x, 0), vGround, altM)
		if dt <= prev {
			t.Errorf("actuation time not increasing: %v after %v (x=%v)", dt, prev, x)
		}
		prev = dt
	}
}

func TestActuationTimeSatisfiesConstraint(t *testing.T) {
	// Property: the returned dt satisfies Eq. 1 with near-equality.
	m := PaperSlew()
	f := func(x1s, y1s, x2s, y2s uint32) bool {
		p1 := pt(float64(x1s%90000)-45000, float64(y1s%60000))
		p2 := pt(float64(x2s%90000)-45000, float64(y2s%60000))
		sub := pt(0, -10e3)
		dt := ActuationTimeS(m, sub, p1, p2, vGround, altM)
		if dt == 0 {
			return p1.Dist(p2) < 1 // only free when effectively same boresight
		}
		sub2 := pt(sub.X, sub.Y+vGround*dt)
		need := PointingAngleDeg(sub, p1, sub2, p2, altM)
		// Feasible and tight to within bisection tolerance.
		return m.MaxAngDeg(dt) >= need-1e-6 && m.MaxAngDeg(dt) <= need+0.05*need+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActuationTimePaperScale(t *testing.T) {
	// Repointing across a 10 km high-res swath-width at 3 deg/s should take
	// roughly a second-or-two: angle ~ 2*atan(5km/475km) ~ 1.2 deg.
	m := PaperSlew()
	sub := pt(0, 0)
	dt := ActuationTimeS(m, sub, pt(-5e3, 30e3), pt(5e3, 30e3), vGround, altM)
	if dt < 0.67 || dt > 3 {
		t.Errorf("cross-swath repoint dt = %v s", dt)
	}
}

// actuationTime80 is ActuationTimeS with its bisection always running all
// 80 halvings: the reference the early stop must reproduce.
func actuationTime80(m SlewModel, sub1, p1, p2 geo.Point2, groundSpeedMS, altM float64) float64 {
	need := func(dt float64) float64 {
		sub2 := geo.Point2{X: sub1.X, Y: sub1.Y + groundSpeedMS*dt}
		return PointingAngleDeg(sub1, p1, sub2, p2, altM)
	}
	if need(0) < 1e-9 {
		return 0
	}
	lo, hi := 0.0, m.OverheadS+need(0)/m.RateDegS
	for i := 0; i < 60 && m.MaxAngDeg(hi) < need(hi); i++ {
		hi *= 2
		if hi > 1e4 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if m.MaxAngDeg(mid) >= need(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestActuationTimeBisectionBitIdentical compares ActuationTimeS bit for
// bit with the 80-halving reference on a million random geometries:
// several slew models (one slow enough that far targets are unreachable),
// altitudes from 1 km to 1000 km, separations from zero (the same target)
// to 1000 km, and ground speeds from standing still to 8 km/s.
func TestActuationTimeBisectionBitIdentical(t *testing.T) {
	models := []SlewModel{PaperSlew(), HighEndSlew(), {RateDegS: 0.5}, {RateDegS: 30, OverheadS: 3}, {RateDegS: 0.005, OverheadS: 0.2}}
	rng := rand.New(rand.NewSource(1))
	pt := func(scale float64) geo.Point2 {
		return geo.Point2{X: (2*rng.Float64() - 1) * scale, Y: (2*rng.Float64() - 1) * scale}
	}
	var zero, inf int
	for n := 0; n < 1_000_000; n++ {
		m := models[n%len(models)]
		scale := math.Pow(10, 2+4*rng.Float64())
		sub1, p1 := pt(scale), pt(scale)
		p2 := pt(scale)
		if n%10 == 0 {
			p2 = p1
		}
		v := 8000 * rng.Float64()
		if n%7 == 0 {
			v = 0
		}
		alt := math.Pow(10, 3+3*rng.Float64())
		got := ActuationTimeS(m, sub1, p1, p2, v, alt)
		want := actuationTime80(m, sub1, p1, p2, v, alt)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%+v, %v, %v, %v, v %v, alt %v): %v, 80 halvings %v", n, m, sub1, p1, p2, v, alt, got, want)
		}
		switch {
		case want == 0:
			zero++
		case math.IsInf(want, 1):
			inf++
		}
	}
	if zero == 0 || inf == 0 {
		t.Errorf("%d zero and %d unreachable cases: the edges are not exercised", zero, inf)
	}
}

func TestTimeWindowNadirTarget(t *testing.T) {
	sub := pt(0, 0)
	target := pt(0, 50e3) // dead ahead on track
	t0, t1, ok := TimeWindow(sub, target, vGround, altM, 11)
	if !ok {
		t.Fatal("window not found for on-track target")
	}
	// The window must bracket the overflight time 50e3/vGround.
	tc := 50e3 / vGround
	if t0 >= tc || t1 <= tc {
		t.Errorf("window [%v, %v] does not bracket %v", t0, t1, tc)
	}
	// Symmetric around the crossing.
	if math.Abs((tc-t0)-(t1-tc)) > 1e-6 {
		t.Errorf("window asymmetric: %v vs %v", tc-t0, t1-tc)
	}
	// Paper-scale: full window ~ 2*92km/7.3km/s ~ 25 s.
	if w := t1 - t0; w < 20 || w > 30 {
		t.Errorf("window length = %v s", w)
	}
}

func TestTimeWindowOutOfReach(t *testing.T) {
	sub := pt(0, 0)
	// Cross-track 100 km > 92 km reach at 11 deg: never imageable.
	if _, _, ok := TimeWindow(sub, pt(100e3, 0), vGround, altM, 11); ok {
		t.Error("out-of-reach target got a window")
	}
	if _, _, ok := TimeWindow(sub, pt(0, 0), 0, altM, 11); ok {
		t.Error("zero ground speed got a window")
	}
	if _, _, ok := TimeWindow(sub, pt(0, 0), vGround, 0, 11); ok {
		t.Error("zero altitude got a window")
	}
}

func TestTimeWindowShrinksWithCrossTrack(t *testing.T) {
	prev := math.Inf(1)
	for _, xt := range []float64{0, 30e3, 60e3, 90e3} {
		w := WindowLengthS(xt, vGround, altM, 11)
		if w >= prev {
			t.Errorf("window at xt=%v is %v, not smaller than %v", xt, w, prev)
		}
		prev = w
	}
	if w := WindowLengthS(95e3, vGround, altM, 11); w != 0 {
		t.Errorf("beyond-reach window = %v", w)
	}
}

func TestTimeWindowConsistentWithOffNadir(t *testing.T) {
	// Property: at both window edges the off-nadir angle equals the max.
	f := func(xs, ys uint32) bool {
		p := pt(float64(xs%80000)-40000, float64(ys%200000)-100000)
		sub := pt(0, 0)
		t0, t1, ok := TimeWindow(sub, p, vGround, altM, 11)
		if !ok {
			return math.Abs(p.X) > altM*math.Tan(geo.Deg2Rad(11))-1
		}
		for _, tt := range []float64{t0, t1} {
			n := pt(0, vGround*tt)
			if math.Abs(OffNadirDeg(n, p, altM)-11) > 1e-6 {
				return false
			}
		}
		// Midpoint is strictly inside the cone.
		mid := pt(0, vGround*(t0+t1)/2)
		return OffNadirDeg(mid, p, altM) <= 11+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHighEndSlewFaster(t *testing.T) {
	sub := pt(0, 0)
	p1, p2 := pt(-40e3, 20e3), pt(40e3, 60e3)
	slow := ActuationTimeS(PaperSlew(), sub, p1, p2, vGround, altM)
	fast := ActuationTimeS(HighEndSlew(), sub, p1, p2, vGround, altM)
	if fast >= slow {
		t.Errorf("10 deg/s (%v s) not faster than 3 deg/s (%v s)", fast, slow)
	}
}

// pt is shorthand for constructing frame-local points in tests.
func pt(x, y float64) geo.Point2 { return geo.Point2{X: x, Y: y} }
