package dataset

import (
	"math"
	"math/rand"
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
// is reported twice, and no in-radius target is missed.
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
	})
}

// FuzzTimedIndexSpanDifferential checks the moving-set index against the
// full-set build it replaces. A TimedIndex bucket indexes only the targets
// alive in it, at positions read off cached courses, and retired buckets
// hand their storage to later builds; yet every query, filtered by
// ActiveAt as the simulator filters it, must return exactly what a
// full-set NewIndex at the bucket start returns -- the same targets in
// the same order -- and PosAt must match Target.PosAt bit for bit.
// Queries walk forward in time with a Retire at or before each one, the
// simulator's window pattern, and every few steps look back a bucket,
// often into one already retired, which must rebuild identically.
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
		tx := NewTimedIndex(s, cellDeg, bucketS)
		check := func(p geo.LatLon, r, tq float64) {
			t.Helper()
			start := float64(int64(math.Floor(tq/bucketS))) * bucketS
			want := activeAt(s, NewIndex(s, cellDeg, start).NearInto(p, r, tq, nil), tq)
			got := activeAt(s, tx.NearInto(p, r, tq, nil), tq)
			if len(got) != len(want) {
				t.Fatalf("t=%v: %d active candidates, full-set index %d", tq, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("t=%v: candidate %d is %d, full-set index has %d", tq, i, got[i], want[i])
				}
			}
			for i := range s.Targets {
				a, b := tx.PosAt(int32(i), tq), s.Targets[i].PosAt(tq)
				if math.Float64bits(a.Lat) != math.Float64bits(b.Lat) || math.Float64bits(a.Lon) != math.Float64bits(b.Lon) {
					t.Fatalf("t=%v: PosAt(%d) = %#v, Target.PosAt %#v", tq, i, a, b)
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

// activeAt keeps the candidates active at ts, in order.
func activeAt(s *Set, cands []int32, ts float64) []int32 {
	out := cands[:0]
	for _, ci := range cands {
		if s.Targets[ci].ActiveAt(ts) {
			out = append(out, ci)
		}
	}
	return out
}
