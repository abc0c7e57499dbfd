package dataset

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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

// TestNearVisitsEachRowOnce queries 300 km around a point of row 86 of a
// 0.7-degree grid whose band starts within rounding of a row edge. A walk
// that stepped a float latitude by the cell size visited rows 83, 84, 85,
// 85, 87, 88, 88, 89, 90 there: the targets of rows 85 and 88 came twice,
// and neither the one at the query point nor the one at row 86's centre
// came at all. One target stands at the query point and one at the
// centre of each row 82 to 92; every one within the radius must be
// listed exactly once.
func TestNearVisitsEachRowOnce(t *testing.T) {
	const cellDeg, r = 0.7, 300e3
	q := geo.LatLon{Lat: -29.197297297297304, Lon: 10}
	s := &Set{Name: "rows", Targets: []Target{{ID: 0, Pos: q, Value: 1}}}
	for row := 82; row <= 92; row++ {
		p := geo.LatLon{Lat: -90 + (float64(row)+0.5)*cellDeg, Lon: 10}
		s.Targets = append(s.Targets, Target{ID: len(s.Targets), Pos: p, Value: 1})
	}
	ix := NewIndex(s, cellDeg, 0)
	if row := ix.keyOf(q) / ix.stride; row != 86 {
		t.Fatalf("query point keys into row %d, want 86", row)
	}
	count := make(map[int32]int)
	for _, ci := range ix.NearInto(q, r, 0, nil) {
		count[ci]++
	}
	inside := 0
	for i, tgt := range s.Targets {
		if geo.GreatCircleDistance(tgt.Pos, q) > r {
			if count[int32(i)] > 1 {
				t.Errorf("target %d at %v listed %d times", i, tgt.Pos, count[int32(i)])
			}
			continue
		}
		inside++
		if count[int32(i)] != 1 {
			t.Errorf("target %d at %v, %.0f km away, listed %d times, want once",
				i, tgt.Pos, geo.GreatCircleDistance(tgt.Pos, q)/1e3, count[int32(i)])
		}
	}
	if inside != 9 {
		t.Errorf("%d targets within %.0f km, want 9 (the query point and rows 83 to 90)", inside, r/1e3)
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

// TestTimedIndexCourseKeys keys every airplane in a spread of buckets of
// a day and compares each cell with a full-set NewIndex at the bucket
// start: the same cell for every live target, -1 for the rest.
func TestTimedIndexCourseKeys(t *testing.T) {
	s := Airplanes(1)
	tx := NewTimedIndex(s, 2, 600)
	for _, b := range []int64{1, 7, 36, 72, 100, 143} {
		checkKeys(t, tx, NewIndex(s, 2, float64(b)*600))
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

// TestTimedIndexCoursesDifferential checks the course groups against the
// all-courses definition on an airplane day whose every 499th airplane
// starts at or near a pole or at a NaN latitude, so that the polar list
// holds targets of many groups: the polar list, computed before any
// course, and every epoch a query or Prefetch builds, from the groups its
// hour reaches, equal those of every target's newTrack (checkCourses).
// Before the first build no course is computed.
func TestTimedIndexCoursesDifferential(t *testing.T) {
	s := Airplanes(1)
	poles := []float64{90, -90, 89.99995, -89.9999, 89.5, -89, math.NaN()}
	for i := 0; i < len(s.Targets); i += 499 {
		s.Targets[i].Pos.Lat = poles[(i/499)%len(poles)]
	}
	tx := NewTimedIndex(s, 2, 600)
	tx.tracksOnce.Do(tx.initTracks)
	if len(tx.polar) == 0 || tx.EpochStats().Courses != 0 {
		t.Fatalf("%d polar courses, %d courses computed before any build", len(tx.polar), tx.EpochStats().Courses)
	}
	p := geo.LatLon{Lat: 48, Lon: 8}
	for _, h := range []float64{0, 1, 7, 19, 23} {
		tx.Near(p, 300e3, h*3600+1234)
		checkCourses(t, tx)
	}
	tx.Prefetch(13 * 3600)
	tx.Wait()
	checkCourses(t, tx)
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

// TestTimedIndexKeysFewTargets pins what a frame-sized query keys: one
// query over North America in bucket 7 of the airplane day, swept,
// filtered exactly and ordered, keys exactly the targets it orders -- a
// handful of the bucket's live targets, where a bucket build keyed them
// all -- and returns what a full-set index returns.
func TestTimedIndexKeysFewTargets(t *testing.T) {
	s := Airplanes(1)
	tx := NewTimedIndex(s, 2, 600)
	const b, r = 7, 150e3
	ts := b*600 + 300.0
	p := geo.LatLon{Lat: 40, Lon: -95}
	var sc OrderScratch
	kept := within(s, tx.Near(p, r, ts), p, r, ts)
	got := inOrder(tx, kept, p, r, ts, &sc)
	want := within(s, NewIndex(s, 2, b*600).Near(p, r, ts), p, r, ts)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("ordered sweep %v, full-set index %v", got, want)
	}
	live := 0
	for i := range s.Targets {
		if liveIn(&s.Targets[i], b, 600) {
			live++
		}
	}
	if sc.keyed != len(kept) || 100*sc.keyed >= live {
		t.Errorf("one query keyed %d targets of %d live and ordered %d, want exactly the ordered ones", sc.keyed, live, len(kept))
	}
}

// TestTimedIndexConcurrentFirstTouch races epoch builds against sweeps of
// built epochs and Order calls, the parallel simulator's access pattern:
// eight goroutines query overlapping points of the same and adjacent
// buckets of an airplane day (buckets 5 to 7, across an epoch boundary),
// each with its own OrderScratch, and every swept, filtered and ordered
// result must equal what a full-set NewIndex at the bucket start lists.
// The first reach of each course group races too: epoch 1 is prefetched
// as the queries start, and each goroutine calls Outside on its
// candidates and on targets of every group, before any build reaches
// most of them. Outside must reject only targets outside the cap, each
// group's courses must be computed once, and each course must be its
// target's newTrack.
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
	outside := func(i int32, q query, c *Cap) {
		if tx.Outside(i, q.ts, c) && geo.GreatCircleDistance(s.Targets[i].PosAt(q.ts), q.p) <= q.r {
			t.Errorf("Outside rejects target %d inside the cap at t=%v", i, q.ts)
		}
	}
	var wg sync.WaitGroup
	tx.Prefetch(3600)
	for w := range qs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch []int32
			var sc OrderScratch
			for k, q := range qs[w] {
				scratch = tx.NearInto(q.p, q.r, q.ts, scratch[:0])
				c := NewCap(q.p, q.r)
				for _, i := range scratch {
					outside(i, q, &c)
				}
				outside(int32((w*7919+k*6899)%len(s.Targets)), q, &c)
				got[w] = append(got[w], inOrder(tx, within(s, scratch, q.p, q.r, q.ts), q.p, q.r, q.ts, &sc))
			}
		}(w)
	}
	wg.Wait()
	tx.Wait()
	if st := tx.EpochStats(); st.Builds != 2 || st.Courses > int64(len(s.Targets)) {
		t.Errorf("stats %+v: want epochs 0 and 1 built and each course computed at most once", st)
	}
	tx.coursesThrough(math.MaxInt64)
	if st := tx.EpochStats(); st.Courses != int64(len(s.Targets)) {
		t.Errorf("%d courses computed, want each of the %d once", st.Courses, len(s.Targets))
	}
	checkCourses(t, tx)
	full := map[int64]*Index{}
	found := 0
	for w := range qs {
		for i, q := range qs[w] {
			b := int64(math.Floor(q.ts / 600))
			if full[b] == nil {
				full[b] = NewIndex(s, 2, float64(b)*600)
			}
			want := within(s, full[b].Near(q.p, q.r, q.ts), q.p, q.r, q.ts)
			if !slices.Equal(got[w][i], want) {
				t.Fatalf("goroutine %d query %d: ordered sweep %v, full-set index %v", w, i, got[w][i], want)
			}
			found += len(want)
		}
	}
	if found == 0 {
		t.Fatal("no query kept a target")
	}
}

// TestTimedIndexPrefetch races prefetched epoch builds against the
// parallel simulator's access pattern around them. Over three hours of an
// airplane day, the next hour's epoch is prefetched while eight
// goroutines sweep and order queries in this hour and in the first six
// minutes of the next, so some queries wait for the build in flight or
// build that epoch themselves. Between hours Retire runs while the next
// build is in flight. Then, after a Retire past every epoch, half the
// goroutines query the epoch just prefetched and half the one after it,
// so two builds run at once on scratch a finished build handed back.
// Every sweep and every ordered result must equal a fresh index queried
// from one goroutine, each epoch is built once, Retire never drops an
// epoch whose build has not finished, and no goroutine outlives Wait. On
// a static set Prefetch starts no goroutine.
func TestTimedIndexPrefetch(t *testing.T) {
	base := runtime.NumGoroutine()
	static := NewTimedIndex(Ships(1), 2, 600)
	static.Prefetch(3600)
	if n := runtime.NumGoroutine(); n > base || static.EpochStats() != (EpochStats{}) {
		t.Fatalf("static set: %d goroutines (base %d), stats %+v; want no prefetch", n, base, static.EpochStats())
	}

	s := Airplanes(2)
	type query struct {
		p     geo.LatLon
		r, ts float64
	}
	type answer struct{ swept, ordered []int32 }
	const hours, workers = 3, 8
	// queriesAt lists goroutine w's queries from hour h's start to six
	// minutes into the next hour.
	queriesAt := func(h, w int) []query {
		var qs []query
		for i := 0; i < 12; i++ {
			qs = append(qs, query{
				p:  geo.LatLon{Lat: 30 + float64((w+i)%5)*3, Lon: -100 + float64((3*w+i)%8)*2.5},
				r:  150e3,
				ts: float64(h)*3600 + float64((5*w+7*i)%66)*60 + float64(i%3)*17,
			})
		}
		return qs
	}
	ask := func(tx *TimedIndex, q query, sc *OrderScratch) answer {
		swept := tx.Near(q.p, q.r, q.ts)
		return answer{swept, inOrder(tx, within(s, swept, q.p, q.r, q.ts), q.p, q.r, q.ts, sc)}
	}
	tx := NewTimedIndex(s, 2, 600)
	round := func(hourOf func(w int) int) (got [workers][]answer) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var sc OrderScratch
				for _, q := range queriesAt(hourOf(w), w) {
					got[w] = append(got[w], ask(tx, q, &sc))
				}
			}(w)
		}
		wg.Wait()
		return got
	}

	var got [hours][workers][]answer
	tx.Prefetch(3600)
	for h := 0; h < hours; h++ {
		got[h] = round(func(int) int { return h })
		tx.Prefetch(float64(h+2) * 3600)
		tx.Retire(float64(h+1) * 3600)
	}
	tx.Wait()
	if st := tx.EpochStats(); st.Builds != hours+2 || st.Prefetches != hours+1 {
		t.Errorf("stats %+v, want %d builds (epochs 0 to %d) and %d prefetches", st, hours+2, hours+1, hours+1)
	}
	lateHour := func(w int) int { return hours + 2 + w%2 }
	tx.Prefetch(float64(hours+2) * 3600)
	tx.Retire(math.Inf(1))
	late := round(lateHour)
	tx.Wait()
	c, _ := tx.cell(hours + 9)
	tx.Retire(math.Inf(1))
	if tx.epochs[hours+9] != c {
		t.Error("Retire dropped an epoch whose build has not finished")
	}

	fresh := NewTimedIndex(s, 2, 600)
	var sc OrderScratch
	found := 0
	check := func(h, w int, g []answer) {
		for i, q := range queriesAt(h, w) {
			want := ask(fresh, q, &sc)
			if !slices.Equal(g[i].swept, want.swept) || !slices.Equal(g[i].ordered, want.ordered) {
				t.Fatalf("goroutine %d, t=%v: swept %v ordered %v, fresh index %v and %v", w, q.ts, g[i].swept, g[i].ordered, want.swept, want.ordered)
			}
			found += len(want.ordered)
		}
	}
	for w := 0; w < workers; w++ {
		for h := 0; h < hours; h++ {
			check(h, w, got[h][w])
		}
		check(lateHour(w), w, late[w])
	}
	if found == 0 {
		t.Fatal("no query kept a target")
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after Wait, %d before", n, base)
	}
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to base, since a goroutine runs on briefly after the WaitGroup it
// signals releases its waiter, and returns the count.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestTimedIndexNonFiniteCourse keys and sweeps targets whose course is
// NaN -- a NaN speed or heading, which Set.Validate rejects but sets built
// in the program need not pass through -- beside an ordinary target,
// without panicking on the NaN epoch position.
// Each keys where a full-set NewIndex files it, and at t = 0, where
// Target.PosAt still puts it at Pos, a sweep around it finds it and Order
// lists what the full-set index lists.
func TestTimedIndexNonFiniteCourse(t *testing.T) {
	s := &Set{Name: "nan", Moving: true, Targets: []Target{
		{ID: 0, Pos: geo.LatLon{Lat: 10, Lon: 20}, SpeedMS: math.NaN(), HeadingDeg: 45, Value: 1},
		{ID: 1, Pos: geo.LatLon{Lat: -30, Lon: 100}, SpeedMS: 250, HeadingDeg: math.NaN(), Value: 1},
		{ID: 2, Pos: geo.LatLon{Lat: 40, Lon: -95}, SpeedMS: 250, HeadingDeg: 90, Value: 1},
	}}
	tx := NewTimedIndex(s, 2, 600)
	var sc OrderScratch
	for _, at := range []float64{0, 3 * 600} {
		full := NewIndex(s, 2, at)
		checkKeys(t, tx, full)
		for _, tgt := range s.Targets {
			p := tgt.PosAt(at)
			if math.IsNaN(p.Lat) {
				continue
			}
			got := inOrder(tx, within(s, tx.Near(p, 1e5, at), p, 1e5, at), p, 1e5, at, &sc)
			if want := within(s, full.Near(p, 1e5, at), p, 1e5, at); len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("t=%v: query at target %d: ordered sweep %v, full-set index %v", at, tgt.ID, got, want)
			}
		}
	}
}

// TestTimedIndexSweepMargin sweeps at an epoch midpoint, where the pad is
// zero and only epochMarginM covers the rounding of the epoch's rough
// cells and float32 slots: moving targets reach points on the query
// circle, a hair inside it and anywhere inside it at the midpoint, and
// every one within the radius must be swept.
func TestTimedIndexSweepMargin(t *testing.T) {
	const mid = 3 * 600.0 // epoch 0's midpoint
	rng := rand.New(rand.NewSource(9))
	s := &Set{Name: "margin", Moving: true}
	type query struct {
		p geo.LatLon
		r float64
	}
	var qs []query
	for qi := 0; qi < 40; qi++ {
		q := query{p: geo.LatLon{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}, r: 20e3 + rng.Float64()*300e3}
		qs = append(qs, q)
		for k := 0; k < 50; k++ {
			d := q.r * []float64{1, 1 - 1e-12, 1 - 1e-9, rng.Float64()}[k%4]
			speed := 180 + rng.Float64()*120
			start, brg := walkBack(geo.Destination(q.p, rng.Float64()*360, d), rng.Float64()*360, speed*mid)
			s.Targets = append(s.Targets, Target{ID: len(s.Targets), Pos: start, SpeedMS: speed, HeadingDeg: brg, Value: 1})
		}
	}
	all := make([]int32, len(s.Targets))
	for i := range all {
		all[i] = int32(i)
	}
	tx := NewTimedIndex(s, 2, 600)
	found := 0
	for qi, q := range qs {
		in := within(s, all, q.p, q.r, mid)
		if sw := within(s, tx.Near(q.p, q.r, mid), q.p, q.r, mid); len(sw) != len(in) {
			t.Errorf("query %d: sweep holds %d of the %d targets within %.0f m", qi, len(sw), len(in), q.r)
		}
		found += len(in)
	}
	if found < len(qs)*30 {
		t.Errorf("only %d targets within the radii: the circle is not exercised", found)
	}
}

// TestTimedIndexSweepTight pins the time-accurate sweep on the
// simulator's index of an airplane day (2-degree cells, 600 s buckets):
// 126 km sweeps at 0, ±10, ±29 and +29.98 minutes from several epoch
// midpoints list no target, outside polar and loose, whose position at
// the query time lies farther from p than r + epochMarginM + 2R(δ²/2 +
// δ³/6) + 10 m, δ = maxSpeed·|ts − mid|/R: the slack of carrying each
// midpoint along its velocity, where a sweep of midpoints alone lists
// targets up to twice the half hour of flight (~540 km) it pads by. Every
// target active within r must still be swept.
func TestTimedIndexSweepTight(t *testing.T) {
	s := Airplanes(7)
	tx := NewTimedIndex(s, 2, 600)
	tx.tracksOnce.Do(tx.initTracks)
	const r = 126e3
	kept, inside := 0, 0
	pos := make([]geo.LatLon, len(s.Targets))
	for _, e := range []int64{0, 7, 13, 20} {
		mid := float64(e*epochBuckets+epochBuckets/2) * 600
		for _, off := range []float64{0, 10, -10, 29, -29, 29.98} {
			ts := mid + off*60
			for i := range s.Targets {
				pos[i] = s.Targets[i].PosAt(ts)
			}
			d := tx.maxSpeed * math.Abs(ts-mid) / geo.EarthMeanRadius
			bound := r + epochMarginM + 2*geo.EarthMeanRadius*(d*d/2+d*d*d/6) + 10
			exempt := make(map[int32]bool)
			for _, i := range append(slices.Clone(tx.polar), tx.epochAt(ts).loose...) {
				exempt[i] = true
			}
			queries := 0
			for q := int(e) * 97; queries < 6; q += 6899 {
				if !s.Targets[q%len(s.Targets)].ActiveAt(ts) {
					continue
				}
				queries++
				p := pos[q%len(s.Targets)]
				swept := tx.NearInto(p, r, ts, nil)
				listed := make(map[int32]bool, len(swept))
				for _, i := range swept {
					listed[i] = true
					if dist := geo.GreatCircleDistance(pos[i], p); !exempt[i] && dist > bound {
						t.Fatalf("t=%v p=%v: sweep lists target %d at %.0f m, %.0f m past the %.0f m bound",
							ts, p, i, dist, dist-bound, bound)
					}
				}
				kept += len(swept)
				for i := range s.Targets {
					if s.Targets[i].ActiveAt(ts) && geo.GreatCircleDistance(pos[i], p) <= r {
						inside++
						if !listed[int32(i)] {
							t.Fatalf("t=%v p=%v: target %d within %.0f m is not swept", ts, p, i, r)
						}
					}
				}
			}
		}
	}
	t.Logf("sweeps kept %d candidates, %d active within the radius", kept, inside)
	if inside == 0 {
		t.Fatal("no target within the radius: the sweep is not exercised")
	}
}

// TestTimedIndexRelease: after Wait, Release drops every epoch (the
// spare a Retire kept among them), the build scratch, and the courses,
// course groups and live spans, and a static set's index.
func TestTimedIndexRelease(t *testing.T) {
	tx := NewTimedIndex(Airplanes(2), 2, 600)
	p := geo.LatLon{Lat: 40, Lon: -95}
	tx.Near(p, 300e3, 100)
	tx.Prefetch(3600)
	tx.Prefetch(7200)
	tx.Wait()
	tx.Retire(3600)
	if len(tx.epochs) == 0 || tx.spare == nil || tx.groups == nil {
		t.Fatalf("nothing to release: %d epochs, spare %v, %d course groups", len(tx.epochs), tx.spare != nil, len(tx.groups))
	}
	tx.Release()
	if tx.epochs != nil || tx.spare != nil || tx.places != nil || tx.groups != nil || tx.courseAt != nil || tx.spans != nil || tx.polar != nil {
		t.Errorf("Release kept storage: %d epochs, spare %v, %d places, %d course groups, %d course places, %d spans, %d polar",
			len(tx.epochs), tx.spare != nil, len(tx.places), len(tx.groups), len(tx.courseAt), len(tx.spans), len(tx.polar))
	}
	static := NewTimedIndex(Ships(1), 2, 600)
	static.Near(p, 300e3, 0)
	static.Release()
	if static.static != nil {
		t.Error("Release kept the static index")
	}
}
