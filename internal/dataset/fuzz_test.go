package dataset

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"eagleeye/internal/geo"
)

// FuzzReadJSON ensures arbitrary JSON never panics the dataset importer.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"targets":[{"lat":10,"lon":20}]}`)
	f.Add(`{"name":"x","targets":[]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
	})
}

// FuzzShardTileNearDifferential mirrors the sharded frame pipeline's
// candidate query: a shard tile (cell of the frame grid) plus its halo
// band is covered by one NearInto call of the tile's circumradius plus
// the halo margin. At fine cell sizes the index must return a
// duplicate-free superset whose precise re-filter (the one
// sim.filterInFrame applies) is exactly the brute-force scan: no target
// inside the tile+halo disk missed, none reported twice, none invented.
func FuzzShardTileNearDifferential(f *testing.F) {
	f.Add(int64(1), 0.0, 0.0, 25.0, 10.0, 0.05)
	f.Add(int64(2), 49.7, -80.2, 50.0, 10.0, 0.1)
	f.Add(int64(3), -30.0, 120.0, 12.5, 5.0, 0.5)
	f.Add(int64(4), 80.0, 179.5, 100.0, 20.0, 0.05) // polar + antimeridian tile
	f.Fuzz(func(t *testing.T, seed int64, lat, lon, tileKM, haloKM, cellDeg float64) {
		if !(lat >= -90 && lat <= 90) || !(lon >= -360 && lon <= 360) {
			t.Skip()
		}
		if !(tileKM >= 1 && tileKM <= 500) || !(haloKM >= 0 && haloKM <= 100) {
			t.Skip()
		}
		if !(cellDeg >= 0.02 && cellDeg <= 2) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		center := geo.LatLon{Lat: lat, Lon: lon}.Normalize()
		s := &Set{Name: "tile-fuzz"}
		// Cluster most targets within a few tile widths of the center so
		// the query boundary is actually contested, plus a scattered
		// background that must stay excluded.
		spreadDeg := 3 * tileKM / 111
		for i := 0; i < 220; i++ {
			s.Targets = append(s.Targets, Target{
				ID: i,
				Pos: geo.LatLon{
					Lat: center.Lat + (rng.Float64()*2-1)*spreadDeg,
					Lon: center.Lon + (rng.Float64()*2-1)*spreadDeg,
				}.Normalize(),
				Value: 1,
			})
		}
		for i := 220; i < 260; i++ {
			s.Targets = append(s.Targets, Target{
				ID:    i,
				Pos:   geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}.Normalize(),
				Value: 1,
			})
		}
		// Square tile of edge tileKM: circumradius + halo covers every
		// point a shard owning the tile may touch.
		half := tileKM * 1e3 / 2
		radius := math.Hypot(half, half) + haloKM*1e3
		ix := NewIndex(s, cellDeg, 0)
		got := ix.NearInto(center, radius, 0, make([]int32, 0, 16))
		seen := make(map[int32]bool, len(got))
		hits := 0
		for _, ci := range got {
			if seen[ci] {
				t.Fatalf("duplicate candidate %d", ci)
			}
			seen[ci] = true
			if geo.GreatCircleDistance(s.Targets[ci].Pos, center) <= radius {
				hits++
			}
		}
		brute := 0
		for i, tgt := range s.Targets {
			if geo.GreatCircleDistance(tgt.Pos, center) > radius {
				continue
			}
			brute++
			if !seen[int32(i)] {
				t.Fatalf("missed in-halo target %d (radius %.0f m, distance %.0f m)",
					i, radius, geo.GreatCircleDistance(tgt.Pos, center))
			}
		}
		if hits != brute {
			t.Fatalf("filtered candidates %d != brute-force %d", hits, brute)
		}
	})
}

// FuzzNearConsistency drives the grid index with arbitrary query points,
// radii, and cell sizes, checking the three-way invariant NearInto ≡ Near
// ≡ brute force: both query paths agree element-for-element, no candidate
// is reported twice, and no in-radius target is missed. The same targets
// on courses, some starting at or near a pole or at a NaN latitude, must
// give a moving-set index whose polar list and epochs equal those of
// every course (checkCourses).
func FuzzNearConsistency(f *testing.F) {
	f.Add(int64(1), 12.0, 34.0, 80e3, 2.0)
	f.Add(int64(2), 79.5, -179.0, 900e3, 3.0)
	f.Add(int64(3), -85.0, 10.0, 2.2e6, 0.5)
	f.Add(int64(4), 59.0, 0.0, 2.446e6, 2.0) // old lon-wrap duplicate window
	f.Fuzz(func(t *testing.T, seed int64, lat, lon, radiusM, cellDeg float64) {
		if !(lat >= -90 && lat <= 90) || !(lon >= -360 && lon <= 360) {
			t.Skip()
		}
		if !(radiusM >= 0 && radiusM <= 2.5e7) || !(cellDeg >= 0.05 && cellDeg <= 10) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := &Set{Name: "fuzz"}
		for i := 0; i < 200; i++ {
			s.Targets = append(s.Targets, Target{
				ID:    i,
				Pos:   geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}.Normalize(),
				Value: 1,
			})
		}
		ix := NewIndex(s, cellDeg, 0)
		q := geo.LatLon{Lat: lat, Lon: lon}.Normalize()
		got := ix.Near(q, radiusM, 0)
		into := ix.NearInto(q, radiusM, 0, make([]int32, 0, 8))
		if len(got) != len(into) {
			t.Fatalf("Near %d results, NearInto %d", len(got), len(into))
		}
		seen := make(map[int32]bool, len(got))
		for i := range got {
			if got[i] != into[i] {
				t.Fatalf("result %d differs: %d vs %d", i, got[i], into[i])
			}
			if seen[got[i]] {
				t.Fatalf("duplicate candidate %d", got[i])
			}
			seen[got[i]] = true
		}
		for i, tgt := range s.Targets {
			if geo.GreatCircleDistance(tgt.Pos, q) <= radiusM && !seen[int32(i)] {
				t.Fatalf("missed target %d (radius %.0f, distance %.0f)",
					i, radiusM, geo.GreatCircleDistance(tgt.Pos, q))
			}
		}
		// The courses come from their own generator, so the targets above
		// are unchanged; cells of at least 0.5 degrees keep each epoch's
		// offsets small.
		mv := &Set{Name: "fuzz-moving", Moving: true, Targets: slices.Clone(s.Targets)}
		crng := rand.New(rand.NewSource(seed ^ 0x636f757273))
		poles := []float64{90, -90, 89.9999, -89.95, 89, -89, math.NaN()}
		for i := range mv.Targets {
			tgt := &mv.Targets[i]
			if i%20 == 0 {
				tgt.Pos.Lat = poles[crng.Intn(len(poles))]
			}
			if crng.Intn(5) > 0 {
				tgt.SpeedMS = 180 + crng.Float64()*120
			}
			tgt.HeadingDeg = crng.Float64() * 360
			if crng.Intn(3) > 0 {
				tgt.AppearS = crng.Float64() * 0.8 * 86400
			}
		}
		tx := NewTimedIndex(mv, math.Max(cellDeg, 0.5), 600)
		for _, ts := range []float64{0, 5 * 3600, 11*3600 + 1800} {
			tx.Near(q, radiusM, ts)
			checkCourses(t, tx)
		}
	})
}

// FuzzTimedIndexSpanDifferential checks the moving-set index against the
// full-set build it replaces. A query sweeps an hourly epoch index for a
// superset of the targets within its radius, an exact filter keeps the
// ones there, and Order puts them back in the order a full-set NewIndex
// at the bucket start lists them for the same query: the same targets,
// repeats included, in the same order. Every target within the radius
// must be swept, every live target keyed into the cell NewIndex files it
// in, and Outside must never reject a target whose Target.PosAt lies
// within the radius. The polar list and every epoch built, from the
// courses of the groups its hour reaches, must equal those of every
// target's course (checkCourses). The sweep must also be tight: no swept target
// outside polar and loose may lie, at the query time, farther from p
// than the chord of r + epochMarginM plus twice the extrapolation bound
// δ²/2 + δ³/6 (δ = maxSpeed·|ts − mid|/R) and 10 m.
// Queries walk forward in time with a Retire at or before each one, the
// simulator's window pattern, and every few steps look back a bucket,
// often into an epoch already retired, which must rebuild identically.
func FuzzTimedIndexSpanDifferential(f *testing.F) {
	f.Add(int64(1), 12.0, 34.0, 300e3, 1234.5, 0.5, 2.0, 600.0)
	f.Add(int64(2), 79.5, -179.0, 900e3, 86399.0, 1.0, 2.0, 600.0)
	f.Add(int64(3), -45.0, 10.0, 50e3, 0.0, 0.0, 0.5, 600.0) // t = 0: PosAt's shortcut
	f.Add(int64(4), 0.0, 180.0, 2e6, 599.9999999999999, 1.0, 3.0, 600.0)
	f.Add(int64(5), 30.0, 60.0, 150e3, 7200.0, 1.0, 2.0, 60.0) // query on a bucket edge
	f.Add(int64(6), -10.0, -60.0, 500e3, -300.0, 0.3, 2.0, 600.0)
	f.Add(int64(7), 89.0, 0.0, 1e6, 4321.0, 0.9, 7.0, 7.3) // pole, non-integer buckets
	// Bucket edges where k*width and floor(ts/width) round apart: a live
	// test on [k*width, (k+1)*width) times drops a target active here.
	f.Add(int64(-202), -38.92638888888889, -111.0, 62538.0, 479.0748299319729, 0.0, 9.142857142857142, 52.400000000000006)
	// Cell sizes whose edges -90 + k*cellDeg and -180 + k*cellDeg round,
	// so targets placed on an edge are contested between two cells; the
	// simulator's 2-degree grid on the seam column; courses that start at
	// a pole and reach mid-latitudes by the bucket start; the 10-degree
	// grid, whose top row edge lies past +90; and the polar caps.
	f.Add(int64(9), 45.0, 100.0, 400e3, 3000.0, 0.5, 0.7, 600.0)
	f.Add(int64(10), -60.0, -179.9, 800e3, 86400.0, 0.2, 1.7, 600.0)
	f.Add(int64(11), 88.5, 45.0, 1e6, 5400.0, 0.7, 2.3, 600.0)
	f.Add(int64(12), -89.9, 0.0, 2e6, 1800.0, 1.0, 9.142857142857142, 300.0)
	f.Add(int64(13), 10.0, 180.0, 200e3, 600.0, 0.0, 2.0, 600.0)
	f.Add(int64(14), 33.3, -33.3, 300e3, 1e5, 0.5, 3.6, 600.0)
	f.Add(int64(15), 0.0, 0.0, 5e6, 7777.0, 0.5, 10.0, 3600.0)
	f.Add(int64(16), -87.5, 120.0, 1.5e6, 43210.0, 0.9, 0.55, 900.0)
	// At this latitude a 300 km walk over 0.7-degree cells starts within
	// rounding of a row edge, where a walk that stepped a float latitude by
	// the cell size once repeated rows 85 and 88 and skipped row 86. At
	// 300e3 the full-set index at the bucket start and Order walk that
	// band; at 299e3 the sweep, unpadded at the epoch midpoint, walks
	// 300 km. Every walk must visit each row once.
	f.Add(int64(17), -29.197297297297304, 10.0, 300e3, 1800.0, 0.5, 0.7, 600.0)
	f.Add(int64(18), -29.197297297297304, 10.0, 299e3, 1800.0, 0.5, 0.7, 600.0)
	f.Fuzz(func(t *testing.T, seed int64, lat, lon, radiusM, ts, retireFrac, cellDeg, bucketS float64) {
		if !(lat >= -90 && lat <= 90) || !(lon >= -360 && lon <= 360) {
			t.Skip()
		}
		if !(radiusM >= 0 && radiusM <= 5e6) || !(cellDeg >= 0.5 && cellDeg <= 10) {
			t.Skip()
		}
		if !(ts >= -1e6 && ts <= 1e7) || !(retireFrac >= 0 && retireFrac <= 1) || !(bucketS >= 1 && bucketS <= 3600) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := geo.LatLon{Lat: lat, Lon: lon}.Normalize()
		s := spanFuzzSet(rng, p, ts, bucketS)
		addBoundaryTargets(s, seed, ts, cellDeg, bucketS)
		addNonFiniteCourses(s, seed, p)
		tx := NewTimedIndex(s, cellDeg, bucketS)
		var sc OrderScratch
		check := func(p geo.LatLon, r, tq float64) {
			t.Helper()
			start := float64(int64(math.Floor(tq/bucketS))) * bucketS
			full := NewIndex(s, cellDeg, start)
			want := within(s, full.NearInto(p, r, tq, nil), p, r, tq)
			swept := tx.NearInto(p, r, tq, nil)
			checkCourses(t, tx)
			got := inOrder(tx, within(s, swept, p, r, tq), p, r, tq, &sc)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%v: ordered sweep %v, full-set index %v", tq, got, want)
			}
			all := make([]int32, len(s.Targets))
			for i := range all {
				all[i] = int32(i)
			}
			if in, sw := within(s, all, p, r, tq), within(s, swept, p, r, tq); len(in) != len(sw) {
				t.Fatalf("t=%v: sweep holds %d of the %d targets within the radius", tq, len(sw), len(in))
			}
			checkSweepBound(t, tx, swept, p, r, tq)
			checkKeys(t, tx, full)
			c := NewCap(p, r)
			for i := range s.Targets {
				if d := geo.GreatCircleDistance(s.Targets[i].PosAt(tq), p); d <= r && tx.Outside(int32(i), tq, &c) {
					t.Fatalf("t=%v: Outside rejects target %d at %.3f m of a %.3f m cap", tq, i, d, r)
				}
			}
		}
		tq := ts
		for step := 0; step < 10; step++ {
			check(p, radiusM, tq)
			next := tq + rng.Float64()*1.5*bucketS
			if rng.Intn(4) == 0 {
				next = math.Ceil(tq/bucketS) * bucketS // land on a bucket edge
			}
			tx.Retire(tq + retireFrac*(next-tq))
			if step%3 == 2 {
				check(p, radiusM, tq-bucketS)
			}
			tq = next
			p = geo.LatLon{Lat: p.Lat + rng.NormFloat64(), Lon: p.Lon + rng.NormFloat64()}.Normalize()
		}
	})
}

// spanFuzzSet draws a moving set around center whose lifetimes start and
// end on contested instants: the query time, the edges of its bucket, the
// floats beside them, and random times within two buckets. A fifth of the
// targets stand still, a quarter live forever.
func spanFuzzSet(rng *rand.Rand, center geo.LatLon, ts, bucketS float64) *Set {
	lo := math.Floor(ts/bucketS) * bucketS
	hi := lo + bucketS
	edges := []float64{
		ts, math.Nextafter(ts, math.Inf(-1)), math.Nextafter(ts, math.Inf(1)),
		lo, math.Nextafter(lo, math.Inf(-1)), hi, math.Nextafter(hi, math.Inf(-1)),
	}
	when := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return ts + (rng.Float64()*4-2)*bucketS
	}
	s := &Set{Name: "span-fuzz", Moving: true}
	for i := 0; i < 240; i++ {
		tgt := Target{ID: i, HeadingDeg: rng.Float64() * 360, Value: 1}
		if i%2 == 0 {
			tgt.Pos = geo.LatLon{Lat: center.Lat + rng.NormFloat64()*3, Lon: center.Lon + rng.NormFloat64()*3}.Normalize()
		} else {
			tgt.Pos = geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}.Normalize()
		}
		if rng.Intn(5) > 0 {
			tgt.SpeedMS = 180 + rng.Float64()*120
		}
		switch rng.Intn(4) {
		case 1:
			tgt.AppearS = when()
		case 2:
			tgt.VanishS = when()
		case 3:
			tgt.AppearS = when()
			tgt.VanishS = math.Max(tgt.AppearS, when())
		}
		s.Targets = append(s.Targets, tgt)
	}
	return s
}

// addBoundaryTargets appends live targets on the grid's contested
// positions at the start of ts's bucket: within 1e-9 degrees of row and
// column edges, on the antimeridian and in the seam column, poleward of
// +-86 degrees, and on courses that start at a pole. A moving target is
// placed by walking back along its course from the boundary point, so it
// reaches the point at the bucket start; a still one sits on the point.
// The targets come from their own generator, so the targets and query
// walk an earlier seed produced are unchanged.
func addBoundaryTargets(s *Set, seed int64, ts, cellDeg, bucketS float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	at := float64(int64(math.Floor(ts/bucketS))) * bucketS
	rows := int(math.Ceil(180/cellDeg)) + 1
	cols := int(math.Ceil(360/cellDeg)) + 1
	offsets := []float64{0, 1e-12, -1e-12, 1e-10, -1e-9}
	near := func(edge float64) float64 { return edge + offsets[rng.Intn(len(offsets))] }
	rowEdge := func() float64 { return near(-90 + float64(rng.Intn(rows))*cellDeg) }
	colEdge := func() float64 { return near(-180 + float64(rng.Intn(cols))*cellDeg) }
	for i := 0; i < 150; i++ {
		q := geo.LatLon{Lat: rng.Float64()*176 - 88, Lon: rng.Float64()*360 - 180}
		fromPole := false
		switch i % 6 {
		case 0:
			q.Lat = rowEdge()
		case 1:
			q.Lon = colEdge()
		case 2:
			q.Lat, q.Lon = rowEdge(), colEdge()
		case 3:
			q.Lon = []float64{180, -180, near(180), near(-180), near(-180 + float64(cols-2)*cellDeg)}[rng.Intn(5)]
		case 4:
			q.Lat = math.Copysign(86+rng.Float64()*4, rng.Float64()-0.5)
		case 5:
			q.Lat = []float64{90, -90, 89.99999, -89.9999}[rng.Intn(4)]
			fromPole = true
		}
		q = q.Normalize()
		tgt := Target{ID: len(s.Targets), Pos: q, HeadingDeg: rng.Float64() * 360, Value: 1, AppearS: at - bucketS}
		if fromPole || rng.Intn(4) > 0 {
			tgt.SpeedMS = 180 + rng.Float64()*120
		}
		if tgt.SpeedMS != 0 && !fromPole {
			tgt.Pos, tgt.HeadingDeg = walkBack(q, tgt.HeadingDeg, tgt.SpeedMS*at)
		}
		s.Targets = append(s.Targets, tgt)
	}
}

// addNonFiniteCourses appends live targets near center whose course is
// NaN -- a NaN speed or heading, which Set.Validate rejects but sets built
// in the program need not pass through.
// Target.PosAt puts them at Pos at t = 0 and at NaN after, so a query at
// t = 0 must find them. They come from their own generator, like
// addBoundaryTargets.
func addNonFiniteCourses(s *Set, seed int64, center geo.LatLon) {
	rng := rand.New(rand.NewSource(seed ^ 0x4e614e))
	for i := 0; i < 6; i++ {
		tgt := Target{
			ID:         len(s.Targets),
			Pos:        geo.LatLon{Lat: center.Lat + rng.NormFloat64(), Lon: center.Lon + rng.NormFloat64()}.Normalize(),
			SpeedMS:    math.NaN(),
			HeadingDeg: rng.Float64() * 360,
			Value:      1,
		}
		if i%2 == 1 {
			tgt.SpeedMS, tgt.HeadingDeg = 250, math.NaN()
		}
		s.Targets = append(s.Targets, tgt)
	}
}

// walkBack returns the start point and initial bearing of the course that
// passes through q on bearing brgDeg after travelling distM: q's own great
// circle, stepped back by distM, with the bearing it has there.
func walkBack(q geo.LatLon, brgDeg, distM float64) (geo.LatLon, float64) {
	unit := func(p geo.LatLon) (u, north, east geo.Vec3) {
		sinLat, cosLat := math.Sincos(geo.Deg2Rad(p.Lat))
		sinLon, cosLon := math.Sincos(geo.Deg2Rad(p.Lon))
		return geo.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat},
			geo.Vec3{X: -sinLat * cosLon, Y: -sinLat * sinLon, Z: cosLat},
			geo.Vec3{X: -sinLon, Y: cosLon}
	}
	u, north, east := unit(q)
	sinB, cosB := math.Sincos(geo.Deg2Rad(brgDeg))
	dir := north.Scale(cosB).Add(east.Scale(sinB))
	sinD, cosD := math.Sincos(distM / geo.EarthMeanRadius)
	p0 := u.Scale(cosD).Sub(dir.Scale(sinD))
	tangent := u.Scale(sinD).Add(dir.Scale(cosD))
	start := geo.LatLon{Lat: geo.Rad2Deg(math.Asin(p0.Z)), Lon: geo.Rad2Deg(math.Atan2(p0.Y, p0.X))}.Normalize()
	_, north, east = unit(start)
	return start, geo.Rad2Deg(math.Atan2(tangent.Dot(east), tangent.Dot(north)))
}

// checkSweepBound fails when swept, a sweep of (p, r, ts), lists a
// target outside polar and loose whose position at ts lies farther from
// p, in chord, than the chord of r + epochMarginM plus 2(δ²/2 + δ³/6)
// and 10 m: the extrapolated midpoint a sweep keeps lies within the
// first part and δ²/2 + δ³/6 of p, and within δ²/2 + δ³/6 of the
// target's position.
func checkSweepBound(t *testing.T, tx *TimedIndex, swept []int32, p geo.LatLon, r, ts float64) {
	t.Helper()
	e := tx.epochAt(ts)
	exempt := make(map[int32]bool)
	for _, i := range append(slices.Clone(tx.polar), e.loose...) {
		exempt[i] = true
	}
	d := tx.maxSpeed * math.Abs(ts-e.mid) / geo.EarthMeanRadius
	chord := func(arcM float64) float64 { return 2 * math.Sin(math.Min(arcM/geo.EarthMeanRadius, math.Pi)/2) }
	bound := chord(r+epochMarginM) + 2*(d*d/2+d*d*d/6) + 10/geo.EarthMeanRadius
	for _, i := range swept {
		if got := chord(geo.GreatCircleDistance(tx.set.Targets[i].PosAt(ts), p)); !exempt[i] && got > bound {
			t.Fatalf("t=%v: sweep lists target %d at chord %.6g, past the bound %.6g (δ %.4g)", ts, i, got, bound, d)
		}
	}
}

// checkCourses compares what tx derives from the courses it has computed
// with the all-courses definition: every course it has computed with its
// target's newTrack, bit for bit, its polar list with the moving targets
// whose newTrack starts near a pole, and every epoch it has built with
// one built after computing every course.
func checkCourses(t *testing.T, tx *TimedIndex) {
	t.Helper()
	tx.tracksOnce.Do(tx.initTracks)
	var polar []int32
	for i := range tx.set.Targets {
		tgt := &tx.set.Targets[i]
		tr := newTrack(tgt.Pos, tgt.HeadingDeg)
		if tgt.SpeedMS != 0 && tr.nearPole() {
			polar = append(polar, int32(i))
		}
		if gr := &tx.groups[tx.courseAt[i]>>32]; gr.done.Load() && !sameTrack(*tx.track(int32(i)), tr) {
			t.Fatalf("target %d: course %+v, newTrack %+v", i, *tx.track(int32(i)), tr)
		}
	}
	if !slices.Equal(tx.polar, polar) {
		t.Fatalf("polar list %v, all courses %v", tx.polar, polar)
	}
	ref := NewTimedIndex(tx.set, tx.grid.cellDeg, tx.bucketS)
	ref.tracksOnce.Do(ref.initTracks)
	ref.coursesThrough(math.MaxInt64)
	tx.mu.RLock()
	defer tx.mu.RUnlock()
	for e, c := range tx.epochs {
		if !c.done.Load() {
			continue
		}
		got, want := c.ep, ref.buildEpoch(e)
		if got.mid != want.mid || !slices.Equal(got.offsets, want.offsets) ||
			!slices.Equal(got.slots, want.slots) || !slices.Equal(got.loose, want.loose) {
			t.Fatalf("epoch %d: %d slots, %d loose; built from all courses %d and %d",
				e, len(got.slots), len(got.loose), len(want.slots), len(want.loose))
		}
	}
}

// sameTrack reports whether two courses have the same bits, NaNs
// included.
func sameTrack(a, b track) bool {
	for _, p := range [][2]float64{{a.a.X, b.a.X}, {a.a.Y, b.a.Y}, {a.a.Z, b.a.Z}, {a.b.X, b.b.X}, {a.b.Y, b.b.Y}, {a.b.Z, b.b.Z}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// checkKeys compares the bucket-start key of every target with the cell
// full, a full-set NewIndex at the start of a bucket, files it in: the
// same cell for every target live in the bucket, -1 for the rest.
func checkKeys(t *testing.T, tx *TimedIndex, full *Index) {
	t.Helper()
	tx.tracksOnce.Do(tx.initTracks)
	b := int64(math.Floor(full.atTime / tx.bucketS))
	for i := range tx.set.Targets {
		tgt := &tx.set.Targets[i]
		want := int64(-1)
		if liveIn(tgt, b, tx.bucketS) {
			want = full.keyOf(tgt.PosAt(full.atTime))
		}
		if k := tx.keyAt(i, float64(b), full.atTime); k != want {
			t.Fatalf("t=%v: target %d keys into cell %d, full-set index %d (%#v)", full.atTime, i, k, want, *tgt)
		}
	}
}

// liveIn reports whether t may be active at some time in bucket b of the
// given width, judged on the bucket each time floors to: it appears no
// later than b and vanishes no earlier.
func liveIn(t *Target, b int64, width float64) bool {
	return !(math.Floor(t.AppearS/width) > float64(b) ||
		(t.VanishS != 0 && math.Floor(t.VanishS/width) < float64(b)))
}

// within keeps the candidates active within r of p at ts, in order and
// with repeats: the exact filter a caller runs on a sweep.
func within(s *Set, cands []int32, p geo.LatLon, r, ts float64) []int32 {
	var out []int32
	for _, ci := range cands {
		if tgt := &s.Targets[ci]; tgt.ActiveAt(ts) && geo.GreatCircleDistance(tgt.PosAt(ts), p) <= r {
			out = append(out, ci)
		}
	}
	return out
}

// inOrder returns kept in the order tx.Order gives it.
func inOrder(tx *TimedIndex, kept []int32, p geo.LatLon, r, ts float64, sc *OrderScratch) []int32 {
	var out []int32
	for _, j := range tx.Order(kept, p, r, ts, sc) {
		out = append(out, kept[j])
	}
	return out
}
