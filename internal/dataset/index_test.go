package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"eagleeye/internal/geo"
)

// TestIndexFineCellNoAliasing pins the cell-key stride to the column
// count. The old fixed stride of 4096 aliased columns into neighboring
// rows for cellDeg below ~0.088 (360/cellDeg columns): the two targets
// below land in cells (row 1800, col 1000) and (row 1799, col 5096),
// which collide under a 4096 stride (1800*4096+1000 == 1799*4096+5096),
// so a tight query around the first target dragged in a target half a
// world away.
func TestIndexFineCellNoAliasing(t *testing.T) {
	s := &Set{Name: "alias"}
	near := geo.LatLon{Lat: 0.025, Lon: -129.975}
	far := geo.LatLon{Lat: -0.025, Lon: 74.825}
	s.Targets = append(s.Targets,
		Target{ID: 0, Pos: near, Value: 1},
		Target{ID: 1, Pos: far, Value: 1},
	)
	ix := NewIndex(s, 0.05, 0)
	got := ix.Near(near, 1e3, 0)
	foundNear := false
	for _, ci := range got {
		switch ci {
		case 0:
			foundNear = true
		case 1:
			t.Errorf("candidate set contains a target %.0f km away",
				geo.GreatCircleDistance(near, far)/1e3)
		}
	}
	if !foundNear {
		t.Error("query missed the target in its own cell")
	}
}

// TestIndexCoarseCellsStillFind guards the stride change at the default
// coarse resolution: nearby targets keep being found.
func TestIndexCoarseCellsStillFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := &Set{Name: "coarse"}
	for i := 0; i < 200; i++ {
		s.Targets = append(s.Targets, Target{
			ID:    i,
			Pos:   geo.LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}.Normalize(),
			Value: 1,
		})
	}
	ix := NewIndex(s, 2, 0)
	for i, tgt := range s.Targets {
		found := false
		for _, ci := range ix.Near(tgt.Pos, 10e3, 0) {
			if ci == int32(i) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("target %d at %+v not in its own neighborhood", i, tgt.Pos)
		}
	}
}

// TestTimedIndexConcurrentNear hammers one TimedIndex from several
// goroutines so that bucket construction races with lookups -- the access
// pattern of the parallel simulator. Before bucket builds were
// mutex-guarded this failed under -race.
func TestTimedIndexConcurrentNear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := &Set{Name: "conc", Moving: true}
	for i := 0; i < 400; i++ {
		s.Targets = append(s.Targets, Target{
			ID:         i,
			Pos:        geo.LatLon{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}.Normalize(),
			SpeedMS:    50 + rng.Float64()*150,
			HeadingDeg: rng.Float64() * 360,
			Value:      1,
		})
	}
	tx := NewTimedIndex(s, 2, 60)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Interleave bucket times across goroutines so the same
				// bucket is requested concurrently before it exists.
				ts := float64(((i*7 + w*3) % 40) * 60)
				p := geo.LatLon{Lat: float64(i%120 - 60), Lon: float64((w*45+i)%360 - 180)}
				tx.Near(p, 2e5, ts)
			}
		}(w)
	}
	wg.Wait()
	if tx.Set() != s {
		t.Error("Set accessor lost the underlying set")
	}
}

// TestNearNoDuplicateCandidates pins the longitude-span clamp. With
// cellDeg=2 and a query at (59, 0), a radius near 2446 km makes the row at
// lat ~81 scan a padded span of just under 360 degrees plus slack cells:
// the walk wrapped past its own starting cell and reported that cell's
// targets twice, inflating TargetsPerImage/Detections downstream.
func TestNearNoDuplicateCandidates(t *testing.T) {
	s := &Set{Name: "dup"}
	id := 0
	for _, lat := range []float64{59, 75, 81} {
		for lon := -180.0; lon < 180; lon += 2 {
			s.Targets = append(s.Targets, Target{
				ID:    id,
				Pos:   geo.LatLon{Lat: lat, Lon: lon + 0.5},
				Value: 1,
			})
			id++
		}
	}
	ix := NewIndex(s, 2, 0)
	q := geo.LatLon{Lat: 59, Lon: 0}
	seen := make(map[int32]int)
	for radiusM := 2.40e6; radiusM <= 2.50e6; radiusM *= 1.0005 {
		got := ix.Near(q, radiusM, 0)
		for k := range seen {
			delete(seen, k)
		}
		for _, ci := range got {
			seen[ci]++
			if seen[ci] > 1 {
				t.Fatalf("radius %.0f: candidate %d reported %d times", radiusM, ci, seen[ci])
			}
		}
	}
}

// TestNearIntoDifferential checks NearInto ≡ Near ≡ brute force on a
// random world: identical slices from both query paths, no duplicates,
// and every target whose indexed position lies within the radius present.
func TestNearIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := &Set{Name: "diff"}
	for i := 0; i < 500; i++ {
		s.Targets = append(s.Targets, Target{
			ID:    i,
			Pos:   geo.LatLon{Lat: rng.Float64()*178 - 89, Lon: rng.Float64()*360 - 180}.Normalize(),
			Value: 1,
		})
	}
	for _, cellDeg := range []float64{0.5, 2, 7} {
		ix := NewIndex(s, cellDeg, 0)
		scratch := make([]int32, 0, 64)
		for qi := 0; qi < 50; qi++ {
			q := geo.LatLon{Lat: rng.Float64()*178 - 89, Lon: rng.Float64()*360 - 180}.Normalize()
			radiusM := math.Exp(rng.Float64()*8) * 1e3 // 1e3 .. ~3e6 m
			got := ix.Near(q, radiusM, 0)
			scratch = ix.NearInto(q, radiusM, 0, scratch[:0])
			if len(got) != len(scratch) {
				t.Fatalf("cell %.1f query %d: Near %d results, NearInto %d", cellDeg, qi, len(got), len(scratch))
			}
			seen := make(map[int32]bool, len(got))
			for i := range got {
				if got[i] != scratch[i] {
					t.Fatalf("cell %.1f query %d: result %d differs: %d vs %d", cellDeg, qi, i, got[i], scratch[i])
				}
				if seen[got[i]] {
					t.Fatalf("cell %.1f query %d: duplicate candidate %d", cellDeg, qi, got[i])
				}
				seen[got[i]] = true
			}
			for i, tgt := range s.Targets {
				if geo.GreatCircleDistance(tgt.Pos, q) <= radiusM && !seen[int32(i)] {
					t.Fatalf("cell %.1f query %d (radius %.0f): missed target %d at distance %.0f",
						cellDeg, qi, radiusM, i, geo.GreatCircleDistance(tgt.Pos, q))
				}
			}
		}
	}
}

// TestTimedIndexCourseKeys keys every live airplane in a spread of
// buckets of a day from the unit-vector courses and compares each cell
// with a full-set NewIndex at the bucket start. Only a small share of
// keys may take the exact fallback -- the polar caps, the columns beside
// the antimeridian, and positions within the margin of an edge -- and
// some must.
func TestTimedIndexCourseKeys(t *testing.T) {
	s := Airplanes(1)
	tx := NewTimedIndex(s, 2, 600)
	keyed := 0
	for _, b := range []int64{1, 7, 36, 72, 100, 143} {
		at := float64(b) * 600
		tx.Near(geo.LatLon{}, 1, at)
		checkBucket(t, tx, NewIndex(s, 2, at), at)
		for i := range s.Targets {
			if liveIn(&s.Targets[i], b, 600) {
				keyed++
			}
		}
	}
	if frac := float64(tx.exact) / float64(keyed); tx.exact == 0 || frac > 0.03 {
		t.Errorf("%d of %d keys took the exact fallback (%.2f%%), want some and at most 3%%", tx.exact, keyed, 100*frac)
	}
}

// TestTimedIndexEdgeTargetsFallBack places moving targets exactly on
// interior cell edges at a bucket start, where rounding decides the cell:
// equator walkers (heading 90 or 270 keeps the latitude within an ulp of
// 0, a row edge of the 2-degree grid) and meridian walkers on a column
// edge (heading 0 or 180 keeps the longitude exact). Every one must take
// the exact fallback and land where NewIndex puts it; targets walked to
// cell centres must all be keyed from their courses.
func TestTimedIndexEdgeTargetsFallBack(t *testing.T) {
	const at = 3 * 600.0
	rng := rand.New(rand.NewSource(5))
	edges := &Set{Name: "edges", Moving: true}
	centres := &Set{Name: "centres", Moving: true}
	for i := 0; i < 200; i++ {
		tgt := Target{ID: i, SpeedMS: 180 + rng.Float64()*120, Value: 1}
		if i%2 == 0 {
			tgt.Pos = geo.LatLon{Lat: 0, Lon: rng.Float64()*300 - 150}
			tgt.HeadingDeg = []float64{90, 270}[rng.Intn(2)]
		} else {
			tgt.Pos = geo.LatLon{Lat: rng.Float64()*100 - 50, Lon: -150 + 2*float64(rng.Intn(150))}
			tgt.HeadingDeg = []float64{0, 180}[rng.Intn(2)]
		}
		edges.Targets = append(edges.Targets, tgt)
		q := geo.LatLon{Lat: -79 + 2*float64(rng.Intn(80)), Lon: -149 + 2*float64(rng.Intn(150))}
		tgt.Pos, tgt.HeadingDeg = walkBack(q, rng.Float64()*360, tgt.SpeedMS*at)
		centres.Targets = append(centres.Targets, tgt)
	}
	for _, c := range []struct {
		s     *Set
		exact int
	}{{edges, len(edges.Targets)}, {centres, 0}} {
		tx := NewTimedIndex(c.s, 2, 600)
		tx.Near(geo.LatLon{}, 1, at)
		checkBucket(t, tx, NewIndex(c.s, 2, at), at)
		if tx.exact != c.exact {
			t.Errorf("%s: %d keys took the exact fallback, want %d", c.s.Name, tx.exact, c.exact)
		}
	}
}

// TestTimedIndexConcurrentOutside races the lazy course build between
// Outside callers and bucket builds, the way the parallel simulator's
// workers reach it, and checks every verdict against the exact distance.
func TestTimedIndexConcurrentOutside(t *testing.T) {
	s := Airplanes(2)
	s.Targets = s.Targets[:2000]
	tx := NewTimedIndex(s, 2, 600)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := float64(w+1) * 1000
			p := geo.LatLon{Lat: 40, Lon: -95 + float64(w)}
			c := NewCap(p, 500e3)
			for _, i := range tx.Near(p, 500e3, ts) {
				if tx.Outside(i, ts, &c) && geo.GreatCircleDistance(s.Targets[i].PosAt(ts), p) <= 500e3 {
					t.Errorf("Outside rejects target %d inside the cap", i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPoleCourseKeysTopRow keys an airliner whose course passes within
// rounding of the north pole. Its position after 1800 s once had a NaN
// latitude, which Index.key filed in row 0, the south-polar row; it
// belongs in the top row, where a query at the pole finds it.
func TestPoleCourseKeysTopRow(t *testing.T) {
	tgt := Target{
		Pos:     geo.LatLon{Lat: 86.55758937980923, Lon: -153.1345928791959},
		SpeedMS: 212.655069504936, HeadingDeg: -4.134721085902571e-14, Value: 1,
	}
	s := &Set{Name: "pole", Moving: true, Targets: []Target{tgt}}
	ix := NewIndex(s, 2, 1800)
	if row := ix.keyOf(tgt.PosAt(1800)) / ix.stride; row != ix.nrows-1 {
		t.Errorf("position %v keys into row %d, want the top row %d", tgt.PosAt(1800), row, ix.nrows-1)
	}
	tx := NewTimedIndex(s, 2, 600)
	if got := tx.Near(geo.LatLon{Lat: 90}, 10e3, 1800); len(got) != 1 {
		t.Errorf("query at the pole found %v, want the target", got)
	}
}

// TestTimedIndexKeysFewTargets pins the block-by-block bucket fill: one
// frame-sized query over North America in bucket 7 of the airplane day
// keys the targets near the blocks it reads -- under a fifth of the
// bucket's live targets -- and returns what a full-set index returns.
func TestTimedIndexKeysFewTargets(t *testing.T) {
	s := Airplanes(1)
	tx := NewTimedIndex(s, 2, 600)
	const b = 7
	ts := b*600 + 300.0
	p := geo.LatLon{Lat: 40, Lon: -95}
	got := activeAt(s, tx.Near(p, 150e3, ts), ts)
	want := activeAt(s, NewIndex(s, 2, b*600).Near(p, 150e3, ts), ts)
	if !slices.Equal(got, want) {
		t.Fatalf("%d active candidates, full-set index %d", len(got), len(want))
	}
	live := 0
	for i := range s.Targets {
		if liveIn(&s.Targets[i], b, 600) {
			live++
		}
	}
	if tx.keyed == 0 || 5*tx.keyed >= live {
		t.Errorf("one query keyed %d of %d live targets, want some and under 20%%", tx.keyed, live)
	}
}

// TestTimedIndexConcurrentFirstTouch races block builds against reads of
// built blocks, the parallel simulator's access pattern: eight goroutines
// query overlapping points of the same and adjacent buckets of an
// airplane day (buckets 5 to 7, across an epoch boundary), and every
// result must equal the same query on a fresh index queried from one
// goroutine.
func TestTimedIndexConcurrentFirstTouch(t *testing.T) {
	s := Airplanes(2)
	type query struct {
		p     geo.LatLon
		r, ts float64
	}
	var qs [8][]query
	for w := range qs {
		for i := 0; i < 40; i++ {
			qs[w] = append(qs[w], query{
				p:  geo.LatLon{Lat: 30 + float64((w+i)%5)*3, Lon: -100 + float64((3*w+i)%8)*2.5},
				r:  150e3,
				ts: 3000 + float64((w+i)%3)*600 + float64(i%7)*40,
			})
		}
	}
	tx := NewTimedIndex(s, 2, 600)
	got := make([][][]int32, len(qs))
	var wg sync.WaitGroup
	for w := range qs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch []int32
			for _, q := range qs[w] {
				scratch = tx.NearInto(q.p, q.r, q.ts, scratch[:0])
				got[w] = append(got[w], slices.Clone(scratch))
			}
		}(w)
	}
	wg.Wait()
	ref := NewTimedIndex(s, 2, 600)
	for w := range qs {
		for i, q := range qs[w] {
			if want := ref.Near(q.p, q.r, q.ts); !slices.Equal(got[w][i], want) {
				t.Fatalf("goroutine %d query %d: %d candidates, single-goroutine index %d", w, i, len(got[w][i]), len(want))
			}
		}
	}
}

// TestTimedIndexNonFiniteCourse keys targets whose course is NaN -- a
// NaN speed or heading, which Set.Validate does not reject -- where a
// full-set NewIndex files them, beside an ordinary target, without
// panicking on the NaN epoch position.
func TestTimedIndexNonFiniteCourse(t *testing.T) {
	s := &Set{Name: "nan", Moving: true, Targets: []Target{
		{ID: 0, Pos: geo.LatLon{Lat: 10, Lon: 20}, SpeedMS: math.NaN(), HeadingDeg: 45, Value: 1},
		{ID: 1, Pos: geo.LatLon{Lat: -30, Lon: 100}, SpeedMS: 250, HeadingDeg: math.NaN(), Value: 1},
		{ID: 2, Pos: geo.LatLon{Lat: 40, Lon: -95}, SpeedMS: 250, HeadingDeg: 90, Value: 1},
	}}
	const at = 3 * 600.0
	tx := NewTimedIndex(s, 2, 600)
	tx.Near(geo.LatLon{Lat: -89}, 1e5, at)
	checkBucket(t, tx, NewIndex(s, 2, at), at)
}
