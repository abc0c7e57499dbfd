package dataset

import (
	"math"
	"sync"

	"eagleeye/internal/geo"
)

// Index is a uniform lat/lon grid over a target set, answering "which
// targets could lie within R meters of this point" queries. The simulator
// issues one query per leader frame, so the index is what makes 24-hour
// million-target runs tractable.
type Index struct {
	set     *Set
	cellDeg float64
	atTime  float64
	// Cell storage is CSR over the dense row*stride+col key space: cell k
	// holds arena[offsets[k]:offsets[k+1]], members in input order. A flat
	// offsets array replaces the old map of cells: the query loop touches
	// every cell in a window, and the per-cell map hashing dominated the
	// lookup cost on large static sets.
	offsets []int32
	arena   []int32
	// stride is the cell-key row stride: one more than the column count,
	// so any longitude cell (including lon = +180 after wrapping) fits a
	// row without aliasing into its neighbor.
	stride int64
	// nrows bounds the latitude rows; queries clamp to [0, nrows).
	nrows int64
	// maxSpeed widens queries when positions were indexed at a different
	// time than the query.
	maxSpeed float64
}

// NewIndex builds a grid index of the set's positions at elapsed time
// atTime (targets inactive at that time are still indexed; callers filter
// with ActiveAt). cellDeg 0 defaults to 2 degrees.
func NewIndex(s *Set, cellDeg float64, atTime float64) *Index {
	ix := newGrid(s, cellDeg)
	ix.atTime = atTime
	ix.fill(allTime, func(i int) geo.LatLon { return s.Targets[i].PosAt(atTime) }, make([]int64, len(s.Targets)))
	return ix
}

// newGrid returns an empty index over s with the grid geometry of
// cellDeg; fill populates it.
func newGrid(s *Set, cellDeg float64) *Index {
	if cellDeg <= 0 {
		cellDeg = 2
	}
	return &Index{
		set:     s,
		cellDeg: cellDeg,
		stride:  int64(math.Ceil(360/cellDeg)) + 1,
		nrows:   int64(math.Ceil(180/cellDeg)) + 1,
	}
}

// span is a closed range [lo, hi] of time buckets of the given width:
// bucket k holds the times ts with floor(ts/width) == k. An index built
// for a span holds only the targets that may be active in it.
type span struct{ lo, hi, width float64 }

// allTime is the span of NewIndex and of static sets: every target,
// whatever its lifetime.
var allTime = span{lo: math.Inf(-1), hi: math.Inf(1), width: 1}

// skips reports whether t is inactive throughout the span: it appears
// after the last bucket or vanishes before the first. Bucketing is
// monotone in time, so ts >= AppearS implies ts's bucket is no earlier
// than AppearS's (and likewise for VanishS): a skipped target is one that
// ActiveAt rejects at every query time in the span. NaN bounds never
// skip.
func (sp span) skips(t *Target) bool {
	return math.Floor(t.AppearS/sp.width) > sp.hi ||
		(t.VanishS != 0 && math.Floor(t.VanishS/sp.width) < sp.lo)
}

// fill (re)builds the cells over the targets sp does not skip, each
// placed at pos(i), reusing any storage a previous fill left behind. keys
// is scratch with one entry per target. maxSpeed covers every target, so
// a query's padding -- and with it the cells it scans, in order -- is the
// same whichever targets a span skips; skipping only removes candidates
// that ActiveAt would reject.
func (ix *Index) fill(sp span, pos func(i int) geo.LatLon, keys []int64) {
	// Counting-sort build: count members per cell, prefix-sum into the CSR
	// offsets, then scatter indices in input order (so cell membership
	// order matches the old per-cell appends exactly).
	targets := ix.set.Targets
	ncells := ix.nrows * ix.stride
	if int64(len(ix.offsets)) == ncells+1 {
		clear(ix.offsets)
	} else {
		ix.offsets = make([]int32, ncells+1)
	}
	offsets := ix.offsets
	ix.maxSpeed = 0
	n := 0
	for i := range targets {
		t := &targets[i]
		if t.SpeedMS > ix.maxSpeed {
			ix.maxSpeed = t.SpeedMS
		}
		if sp.skips(t) {
			keys[i] = -1
			continue
		}
		p := pos(i)
		k := ix.key(p.Lat, p.Lon)
		keys[i] = k
		offsets[k+1]++
		n++
	}
	// Shifted exclusive prefix sum: offsets[k+1] becomes the start of cell
	// k, and the scatter advances it to the end -- which is the start of
	// cell k+1 -- so no separate cursor array is needed.
	start := int32(0)
	for c := int64(1); c <= ncells; c++ {
		cnt := offsets[c]
		offsets[c] = start
		start += cnt
	}
	if cap(ix.arena) < n {
		ix.arena = make([]int32, n)
	}
	ix.arena = ix.arena[:n]
	for i, k := range keys[:len(targets)] {
		if k < 0 {
			continue
		}
		ix.arena[offsets[k+1]] = int32(i)
		offsets[k+1]++
	}
}

// cell returns cell k's member block. k must be in [0, nrows*stride).
func (ix *Index) cell(k int64) []int32 {
	return ix.arena[ix.offsets[k]:ix.offsets[k+1]]
}

// Set returns the underlying target set.
func (ix *Index) Set() *Set { return ix.set }

func (ix *Index) key(lat, lon float64) int64 {
	r := int64(math.Floor((lat + 90) / ix.cellDeg))
	if r < 0 {
		r = 0
	} else if r >= ix.nrows {
		r = ix.nrows - 1
	}
	c := int64(math.Floor((geo.WrapLonDeg(lon) + 180) / ix.cellDeg))
	if c < 0 {
		c = 0
	} else if c >= ix.stride {
		c = ix.stride - 1
	}
	return r*ix.stride + c
}

// Near returns indices of targets whose indexed position lies within
// roughly radiusM of p (a superset: callers must re-filter precisely).
// queryTime widens the radius by the distance moving targets may have
// travelled since indexing.
func (ix *Index) Near(p geo.LatLon, radiusM float64, queryTime float64) []int32 {
	return ix.NearInto(p, radiusM, queryTime, nil)
}

// NearInto is Near appending into a caller-owned slice (usually sliced to
// length zero), returning the extended slice. The simulator's frame loop
// reuses one scratch slice per worker instead of allocating per query.
func (ix *Index) NearInto(p geo.LatLon, radiusM float64, queryTime float64, out []int32) []int32 {
	pad := ix.maxSpeed * math.Abs(queryTime-ix.atTime)
	radDeg := (radiusM + pad) / 111e3 // meters per degree latitude (conservative)
	if radDeg > 180 {
		radDeg = 180
	}
	latLo := p.Lat - radDeg
	latHi := p.Lat + radDeg
	// Longitude half-window in degrees, valid for every row of the query.
	// For a circle clear of the poles the extreme longitude offset is
	// asin(sin r / cos lat), attained at the tangent parallel rather than
	// the query latitude; the old per-row radDeg/cos(poleward) window
	// under-covered trans-polar reach and, near its 360-degree overflow,
	// wrapped past its own starting cell and reported candidates twice. A
	// circle containing a pole reaches every longitude, so those queries
	// scan full rows.
	poleIn := math.Abs(p.Lat)+radDeg >= 90
	var lonWin float64
	if !poleIn {
		sinR := math.Sin(geo.Deg2Rad(radDeg))
		cosLat := math.Cos(geo.Deg2Rad(p.Lat))
		lonWin = geo.Rad2Deg(math.Asin(math.Min(1, sinR/cosLat)))
	}
	lonQ := geo.WrapLonDeg(p.Lon)
	for lat := latLo; lat <= latHi+ix.cellDeg; lat += ix.cellDeg {
		if lat < -90-ix.cellDeg || lat > 90+ix.cellDeg {
			continue
		}
		row := int64(math.Floor((lat + 90) / ix.cellDeg))
		if row < 0 || row >= ix.nrows {
			continue
		}
		// Clamp a padded span approaching one full row to a single
		// full-row pass so the walk never revisits its starting cell
		// (the 2-cell slack absorbs column-flooring at both ends).
		if poleIn || 2*lonWin+3*ix.cellDeg >= 360 {
			out = ix.appendRow(out, row)
			continue
		}
		// Column span [lo, hi] with one cell of slack, split at the
		// antimeridian. A split range always touches lon = ±180, whose
		// targets live in the extra seam column (WrapLonDeg maps -180 to
		// +180, past the last regular column) — the old lon-walk keyed its
		// -180 step into that seam column and skipped the first regular
		// cell of the row.
		lo := lonQ - lonWin
		hi := lonQ + lonWin + ix.cellDeg
		switch {
		case lo < -180:
			out = ix.appendCols(out, row, ix.col(lo+360), ix.stride-2)
			out = append(out, ix.cell(row*ix.stride+ix.stride-1)...)
			out = ix.appendCols(out, row, 0, ix.col(hi))
		case hi >= 180:
			out = ix.appendCols(out, row, ix.col(lo), ix.stride-2)
			out = append(out, ix.cell(row*ix.stride+ix.stride-1)...)
			out = ix.appendCols(out, row, 0, ix.col(hi-360))
		default:
			out = ix.appendCols(out, row, ix.col(lo), ix.col(hi))
		}
	}
	return out
}

// col maps an unwrapped longitude to its column index (no range clamping).
func (ix *Index) col(lon float64) int64 {
	return int64(math.Floor((lon + 180) / ix.cellDeg))
}

// appendCols appends the cells of columns [cLo, cHi] of a row, clamped to
// the regular-column range.
func (ix *Index) appendCols(out []int32, row, cLo, cHi int64) []int32 {
	if cLo < 0 {
		cLo = 0
	}
	if cHi > ix.stride-2 {
		cHi = ix.stride - 2
	}
	if cHi < cLo {
		return out
	}
	// One contiguous CSR range covers the whole column span.
	base := row * ix.stride
	return append(out, ix.arena[ix.offsets[base+cLo]:ix.offsets[base+cHi+1]]...)
}

// appendRow appends every cell of a latitude row to out, including the
// extra seam column holding lon = +180.
func (ix *Index) appendRow(out []int32, row int64) []int32 {
	base := row * ix.stride
	return append(out, ix.arena[ix.offsets[base]:ix.offsets[base+ix.stride]]...)
}

// TimedIndex maintains per-time-bucket indices for moving target sets,
// building them lazily as the simulation advances. Bucket b holds only
// the targets that may be active at some time in [b*bucketS,
// (b+1)*bucketS), placed at the bucket start along courses cached per
// target, so a bucket costs a fraction of a full-set NewIndex while every
// query returns the same candidates in the same order once filtered by
// ActiveAt. Static sets use one full-set bucket.
//
// Near, NearInto and PosAt are safe for concurrent use: the parallel
// simulator shares one TimedIndex across worker goroutines, so bucket
// construction is mutex-guarded (a completed Index is immutable and read
// without locking). Retire recycles bucket storage and must not run
// concurrently with queries.
type TimedIndex struct {
	set     *Set
	cellDeg float64
	bucketS float64

	// courses caches every moving target's great-circle course. It is
	// built on first use -- the first position off t = 0 -- so creating
	// an index costs nothing up front.
	coursesOnce sync.Once
	courses     []geo.Course

	mu      sync.RWMutex
	buckets map[int64]*Index
	// spare holds retired buckets whose storage later builds reuse; keys
	// is the build scratch.
	spare []*Index
	keys  []int64
}

// maxSpare bounds the retired buckets kept for reuse. A window of a few
// minutes retires and builds a bucket or two, which two spares cover; the
// other buckets of a long window go to the garbage collector instead of
// staying pinned.
const maxSpare = 2

// NewTimedIndex creates a lazily-populated timed index. bucketS 0 defaults
// to 600 s (moving-target positions are re-indexed every ten minutes).
func NewTimedIndex(s *Set, cellDeg, bucketS float64) *TimedIndex {
	if bucketS <= 0 {
		bucketS = 600
	}
	return &TimedIndex{set: s, cellDeg: cellDeg, bucketS: bucketS, buckets: make(map[int64]*Index)}
}

// Near returns candidate indices near p at elapsed time ts.
func (tx *TimedIndex) Near(p geo.LatLon, radiusM float64, ts float64) []int32 {
	return tx.NearInto(p, radiusM, ts, nil)
}

// NearInto is Near appending into a caller-owned slice. The scratch slice
// stays private to the calling goroutine; only the bucket lookup/build is
// synchronized.
func (tx *TimedIndex) NearInto(p geo.LatLon, radiusM float64, ts float64, out []int32) []int32 {
	if !tx.set.Moving {
		// Static sets need a single bucket.
		ts = 0
	}
	b := int64(math.Floor(ts / tx.bucketS))
	tx.mu.RLock()
	ix := tx.buckets[b]
	tx.mu.RUnlock()
	if ix == nil {
		ix = tx.build(b)
	}
	return ix.NearInto(p, radiusM, ts, out)
}

// build returns bucket b, building it under the write lock unless another
// worker got there first (double-checked: the caller's read-locked lookup
// may be stale).
func (tx *TimedIndex) build(b int64) *Index {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if ix := tx.buckets[b]; ix != nil {
		return ix
	}
	var ix *Index
	if n := len(tx.spare); n > 0 {
		ix, tx.spare = tx.spare[n-1], tx.spare[:n-1]
	} else {
		ix = newGrid(tx.set, tx.cellDeg)
	}
	at := float64(b) * tx.bucketS
	sp := allTime
	if tx.set.Moving {
		sp = span{lo: float64(b), hi: float64(b), width: tx.bucketS}
	}
	if len(tx.keys) < len(tx.set.Targets) {
		tx.keys = make([]int64, len(tx.set.Targets))
	}
	ix.atTime = at
	ix.fill(sp, func(i int) geo.LatLon { return tx.PosAt(int32(i), at) }, tx.keys)
	tx.buckets[b] = ix
	return ix
}

// PosAt returns target i's position at elapsed time ts, bit-identical to
// Targets[i].PosAt(ts) but read off the cached course. It takes no lock,
// so the simulator calls it once per candidate.
func (tx *TimedIndex) PosAt(i int32, ts float64) geo.LatLon {
	t := &tx.set.Targets[i]
	if t.SpeedMS == 0 || ts == 0 {
		return t.Pos
	}
	tx.coursesOnce.Do(tx.initCourses)
	return tx.courses[i].At(t.SpeedMS * ts)
}

func (tx *TimedIndex) initCourses() {
	tx.courses = make([]geo.Course, len(tx.set.Targets))
	for i := range tx.set.Targets {
		if t := &tx.set.Targets[i]; t.SpeedMS != 0 {
			tx.courses[i] = geo.NewCourse(t.Pos, t.HeadingDeg)
		}
	}
}

// Retire drops the buckets of a moving set that end at or before ts,
// keeping up to maxSpare of them for their storage. The simulator calls it
// at each window boundary, since every later query is at or after the
// boundary; a query into a retired bucket would simply rebuild it. Static
// sets keep their single bucket. Retire must not run concurrently with
// queries: a retired bucket's storage is handed to the next build.
func (tx *TimedIndex) Retire(ts float64) {
	if !tx.set.Moving {
		return
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for b, ix := range tx.buckets {
		if float64(b+1)*tx.bucketS > ts {
			continue
		}
		delete(tx.buckets, b)
		if len(tx.spare) < maxSpare {
			tx.spare = append(tx.spare, ix)
		}
	}
}

// Set returns the underlying target set.
func (tx *TimedIndex) Set() *Set { return tx.set }
