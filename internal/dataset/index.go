package dataset

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eagleeye/internal/geo"
)

// grid is the cell geometry of an index: uniform lat/lon cells keyed
// row*stride+col.
type grid struct {
	cellDeg float64
	// stride is the cell-key row stride: one more than the column count,
	// so any longitude cell (including lon = +180 after wrapping) fits a
	// row without aliasing into its neighbor.
	stride int64
	// nrows bounds the latitude rows; queries clamp to [0, nrows).
	nrows int64
}

// newGrid returns the geometry of cellDeg-degree cells; cellDeg 0
// defaults to 2 degrees.
func newGrid(cellDeg float64) grid {
	if cellDeg <= 0 {
		cellDeg = 2
	}
	return grid{
		cellDeg: cellDeg,
		stride:  int64(math.Ceil(360/cellDeg)) + 1,
		nrows:   int64(math.Ceil(180/cellDeg)) + 1,
	}
}

// Index is a uniform lat/lon grid over a target set, answering "which
// targets could lie within R meters of this point" queries. The simulator
// issues one query per leader frame, so the index is what makes 24-hour
// million-target runs tractable.
type Index struct {
	grid
	set    *Set
	atTime float64
	// Cell storage is CSR over the dense row*stride+col key space: cell k
	// holds arena[offsets[k]:offsets[k+1]], members in input order. A flat
	// offsets array replaces the old map of cells: the query loop touches
	// every cell in a window, and the per-cell map hashing dominated the
	// lookup cost on large static sets.
	offsets []int32
	arena   []int32
	// maxSpeed widens queries when positions were indexed at a different
	// time than the query.
	maxSpeed float64
}

// NewIndex builds a grid index of the set's positions at elapsed time
// atTime (targets inactive at that time are still indexed; callers filter
// with ActiveAt). cellDeg 0 defaults to 2 degrees.
func NewIndex(s *Set, cellDeg float64, atTime float64) *Index {
	ix := &Index{grid: newGrid(cellDeg), set: s, atTime: atTime}
	// Counting-sort build: count members per cell, prefix-sum into the CSR
	// offsets, then scatter indices in input order (so cell membership
	// order matches the old per-cell appends exactly).
	ix.offsets = make([]int32, ix.nrows*ix.stride+1)
	keys := make([]int64, len(s.Targets))
	for i := range s.Targets {
		if v := s.Targets[i].SpeedMS; v > ix.maxSpeed {
			ix.maxSpeed = v
		}
		keys[i] = ix.keyOf(s.Targets[i].PosAt(atTime))
		ix.offsets[keys[i]+1]++
	}
	// Shifted exclusive prefix sum: offsets[k+1] becomes the start of cell
	// k, and the scatter advances it to the end -- which is the start of
	// cell k+1 -- so no separate cursor array is needed.
	start := int32(0)
	for c := 1; c < len(ix.offsets); c++ {
		cnt := ix.offsets[c]
		ix.offsets[c] = start
		start += cnt
	}
	ix.arena = make([]int32, len(s.Targets))
	for i, k := range keys {
		ix.arena[ix.offsets[k+1]] = int32(i)
		ix.offsets[k+1]++
	}
	return ix
}

// span appends the cells of columns [cLo, cHi] of a row: one contiguous
// CSR range.
func (ix *Index) span(out []int32, row, cLo, cHi int64) []int32 {
	base := row * ix.stride
	return append(out, ix.arena[ix.offsets[base+cLo]:ix.offsets[base+cHi+1]]...)
}

// Set returns the underlying target set.
func (ix *Index) Set() *Set { return ix.set }

// keyOf returns the cell key of position p.
func (g *grid) keyOf(p geo.LatLon) int64 { return g.key(p.Lat, p.Lon) }

func (g *grid) key(lat, lon float64) int64 {
	r := int64(math.Floor((lat + 90) / g.cellDeg))
	if r < 0 {
		r = 0
	} else if r >= g.nrows {
		r = g.nrows - 1
	}
	c := int64(math.Floor((geo.WrapLonDeg(lon) + 180) / g.cellDeg))
	if c < 0 {
		c = 0
	} else if c >= g.stride {
		c = g.stride - 1
	}
	return r*g.stride + c
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
	return near(&ix.grid, ix, p, radiusM, ix.maxSpeed*math.Abs(queryTime-ix.atTime), out)
}

// cellSpans is what a query walk reads: cell storage, or a view of it.
type cellSpans interface {
	// span appends what it holds in columns [cLo, cHi] of a row, cell by
	// cell, each cell's members in input order.
	span(out []int32, row, cLo, cHi int64) []int32
}

// near appends the members of every cell src holds within radiusM+pad of
// p, walking each row of the query's latitude band once, in order, and
// each row's column span west to east. Full indices, epoch sweeps and
// TimedIndex.Order share it, so Order reads the rows and column spans a
// full index reads, in the same order. Its top row may lie past the band,
// where no point within the radius can be. It is generic so that a
// per-query span value stays on the caller's stack instead of escaping
// through an interface.
func near[S cellSpans](g *grid, src S, p geo.LatLon, radiusM, pad float64, out []int32) []int32 {
	w := g.window(p, radiusM+pad)
	lo := max(0, int64(math.Floor((w.latLo+90)/g.cellDeg)))
	hi := min(g.nrows-1, int64(math.Floor((w.latHi+g.cellDeg+90)/g.cellDeg)))
	for row := lo; row <= hi; row++ {
		out = nearRow(g, src, &w, row, out)
	}
	return out
}

// A window is the extent of a query walk: its latitude band, and its
// longitude half-window around lonQ, or full when every row is scanned
// whole.
type window struct {
	latLo, latHi float64
	lonQ, lonWin float64
	full         bool
}

func (g *grid) window(p geo.LatLon, radiusM float64) window {
	radDeg := radiusM / 111e3 // meters per degree latitude (conservative)
	if radDeg > 180 {
		radDeg = 180
	}
	w := window{latLo: p.Lat - radDeg, latHi: p.Lat + radDeg, lonQ: geo.WrapLonDeg(p.Lon)}
	// Longitude half-window in degrees, valid for every row of the query.
	// For a circle clear of the poles the extreme longitude offset is
	// asin(sin r / cos lat), attained at the tangent parallel rather than
	// the query latitude; the old per-row radDeg/cos(poleward) window
	// under-covered trans-polar reach and, near its 360-degree overflow,
	// wrapped past its own starting cell and reported candidates twice. A
	// circle containing a pole reaches every longitude, so those queries
	// scan full rows.
	poleIn := math.Abs(p.Lat)+radDeg >= 90
	if !poleIn {
		sinR := math.Sin(geo.Deg2Rad(radDeg))
		cosLat := math.Cos(geo.Deg2Rad(p.Lat))
		w.lonWin = geo.Rad2Deg(math.Asin(math.Min(1, sinR/cosLat)))
	}
	// Clamp a padded span approaching one full row to a single full-row
	// pass (every cell of the row, including the extra seam column holding
	// lon = +180) so the walk never revisits its starting cell (the 2-cell
	// slack absorbs column-flooring at both ends).
	w.full = poleIn || 2*w.lonWin+3*g.cellDeg >= 360
	return w
}

// nearRow appends src's cells of one row of the window.
func nearRow[S cellSpans](g *grid, src S, w *window, row int64, out []int32) []int32 {
	if w.full {
		return src.span(out, row, 0, g.stride-1)
	}
	// Column span [lo, hi] with one cell of slack, split at the
	// antimeridian. A split range always touches lon = ±180, whose targets
	// live in the extra seam column (WrapLonDeg maps -180 to +180, past the
	// last regular column) — the old lon-walk keyed its -180 step into that
	// seam column and skipped the first regular cell of the row.
	lo := w.lonQ - w.lonWin
	hi := w.lonQ + w.lonWin + g.cellDeg
	switch {
	case lo < -180:
		out = cols(g, src, out, row, g.col(lo+360), g.stride-2)
		out = src.span(out, row, g.stride-1, g.stride-1)
		return cols(g, src, out, row, 0, g.col(hi))
	case hi >= 180:
		out = cols(g, src, out, row, g.col(lo), g.stride-2)
		out = src.span(out, row, g.stride-1, g.stride-1)
		return cols(g, src, out, row, 0, g.col(hi-360))
	default:
		return cols(g, src, out, row, g.col(lo), g.col(hi))
	}
}

// col maps an unwrapped longitude to its column index (no range clamping).
func (g *grid) col(lon float64) int64 {
	return int64(math.Floor((lon + 180) / g.cellDeg))
}

// cols appends src's cells of columns [cLo, cHi] of a row, clamped to the
// regular-column range.
func cols[S cellSpans](g *grid, src S, out []int32, row, cLo, cHi int64) []int32 {
	if cLo < 0 {
		cLo = 0
	}
	if cHi > g.stride-2 {
		cHi = g.stride - 2
	}
	if cHi < cLo {
		return out
	}
	return src.span(out, row, cLo, cHi)
}

// TimedIndex answers "which targets could lie within R meters of this
// point at time ts" for a target set, as the simulator's frame loop asks
// it. A static set has one full-set NewIndex, built on the first query,
// and every query lists its candidates in that index's walk order.
//
// A moving set sweeps an hourly epoch index instead (see epoch). Its
// NearInto returns a superset of the targets active within radiusM of p
// at ts, each at most once, in no bucket order. Order then puts
// the targets a caller keeps from that result into the order a full-set
// NewIndex at the start of ts's bucket (bucketS wide) lists them for the
// same query: the order the simulator's detector draws its RNG in. Each
// kept target is keyed at the bucket start from its exact position
// (Target.PosAt), so a query keys only what it keeps.
//
// Near, NearInto, Order, Outside and Prefetch are safe for concurrent
// use: the parallel simulator shares one TimedIndex across worker
// goroutines, so each epoch is built once (see epochCell), a built index
// is immutable once published, and queries keep their scratch in
// caller-owned slices. Retire recycles epoch storage and must not run
// concurrently with queries; it may run beside a build Prefetch started.
type TimedIndex struct {
	set     *Set
	grid    grid
	bucketS float64

	// tracks caches every target's course and edges the grid's cell
	// boundaries, both in unit-vector form; spans holds every target's
	// live span in buckets, polar lists the moving targets whose course
	// starts near a pole, and maxSpeed is the largest target speed. They
	// are built on the first query of a moving set or Outside call, so
	// creating an index costs nothing up front; static sets never build
	// them.
	tracksOnce sync.Once
	tracks     []track
	spans      []liveSpan
	edges      cellEdges
	polar      []int32
	maxSpeed   float64

	staticOnce sync.Once
	static     *Index

	mu     sync.RWMutex
	epochs map[int64]*epochCell
	// spare is a retired epoch whose storage the next build reuses, and
	// places is the builds' scratch, one int32 a target. A build takes
	// both under mu and hands places back when it is done, so builds run
	// outside the lock and two concurrent builds each own their scratch.
	spare  *epoch
	places []int32

	// pending counts the builds Prefetch started that have not finished;
	// the rest are the running totals EpochStats reports.
	pending            sync.WaitGroup
	builds, prefetches atomic.Int64
	buildNS, blockedNS atomic.Int64
}

// An epochCell is one epoch's slot in the index: built once, by the
// first query that reaches it or by Prefetch, outside the index's lock.
// Queries that reach it while it is being built wait on once. done is set
// after ep, so Retire can skip a build in progress without waiting.
type epochCell struct {
	once sync.Once
	done atomic.Bool
	ep   *epoch
}

// EpochStats are a moving TimedIndex's running totals of epoch builds.
// Builds depends only on which epochs queries and Prefetch reach; the two
// times are wall-clock figures.
type EpochStats struct {
	// Builds counts the epochs built, and Prefetches the builds Prefetch
	// started.
	Builds, Prefetches int64
	// BuildNS is the time spent building epochs, wherever the builds ran.
	BuildNS int64
	// BlockedNS is the time queries spent blocked on a build: building
	// the epoch themselves, or waiting for a build already under way.
	BlockedNS int64
}

const (
	// epochBuckets is the number of buckets one epoch serves. With the
	// simulator's 600 s buckets an epoch is an hour keyed at its
	// midpoint, so a query is padded by at most 30 minutes of flight.
	epochBuckets = 6
	// epochMarginM widens a sweep past the rounding of epoch keys and
	// slots: the unit-vector position lies within a millimetre of
	// Target.PosAt's, atan2Guess's column within ~64 m of the cell the
	// exact longitude falls in, a float32 slot position within ~1 m of
	// its float64 vector, and its float32 velocity moves the
	// extrapolated point by under 10 cm over half an hour at 300 m/s
	// (under 2 m for any sweep that does not keep every slot).
	epochMarginM = 1e3
)

// NewTimedIndex creates a lazily-populated timed index. bucketS 0 defaults
// to 600 s (moving-target positions are re-indexed every ten minutes).
func NewTimedIndex(s *Set, cellDeg, bucketS float64) *TimedIndex {
	if bucketS <= 0 {
		bucketS = 600
	}
	return &TimedIndex{set: s, grid: newGrid(cellDeg), bucketS: bucketS, epochs: make(map[int64]*epochCell)}
}

// Near returns candidate indices near p at elapsed time ts.
func (tx *TimedIndex) Near(p geo.LatLon, radiusM float64, ts float64) []int32 {
	return tx.NearInto(p, radiusM, ts, nil)
}

// NearInto is Near appending into a caller-owned slice. For a moving set
// it sweeps the epoch holding ts: every member whose midpoint position,
// carried to ts along its midpoint velocity, lies within the chord of
// radiusM + epochMarginM of p plus δ²/2 + δ³/6, where δ = pad/R and pad
// bounds how far any target travels between the midpoint and ts, plus
// every course the epoch cannot place, each target at most once. The
// straight line x + u·φ is off its great circle x·cos φ + u·sin φ by at
// most φ²/2 + |φ|³/6, so the result is a superset of the targets active
// within radiusM of p at ts. The walk keeps pad: members are filed by
// their midpoint cell, which lies within pad of the position at ts.
func (tx *TimedIndex) NearInto(p geo.LatLon, radiusM float64, ts float64, out []int32) []int32 {
	if !tx.set.Moving {
		tx.staticOnce.Do(tx.initStatic)
		return tx.static.NearInto(p, radiusM, 0, out)
	}
	tx.tracksOnce.Do(tx.initTracks)
	e := tx.epochAt(ts)
	dt := ts - e.mid
	pad := tx.maxSpeed * math.Abs(dt)
	c := NewCap(p, radiusM+epochMarginM)
	d := pad / geo.EarthMeanRadius
	lim := math.Sqrt(c.chord2) + d*d/2 + d*d*d/6
	sw := sweep{e: e, stride: tx.grid.stride, center: c.center, dt: dt, lim2: lim * lim}
	out = near(&tx.grid, sw, p, radiusM+epochMarginM, pad, out)
	out = append(out, tx.polar...)
	return append(out, e.loose...)
}

func (tx *TimedIndex) initStatic() { tx.static = NewIndex(tx.set, tx.grid.cellDeg, 0) }

// An epoch indexes one hour (epochBuckets buckets) of a moving set: the
// targets live in any of its buckets, keyed at the midpoint from their
// unit-vector courses (cellEdges.roughKey, so a member may sit a cell off
// where it lies within rounding of an edge) and stored CSR by cell, in
// input order, each with its unit vector and velocity there. Targets that
// appear after the midpoint or vanish before it sit where their course
// extrapolates: the sweep's chord test and the caller's ActiveAt decide
// the rest. Courses starting near a pole are left to polar, and targets
// whose midpoint vector or velocity is not finite (a NaN speed or
// heading, say, whose Target.PosAt still holds Pos at t = 0) to loose;
// every query appends both whole.
type epoch struct {
	mid     float64
	offsets []int32
	slots   []slot
	loose   []int32
}

// A slot is one epoch member: its target, its unit vector at the
// midpoint and its velocity there (u·SpeedMS/EarthMeanRadius for the unit
// direction of travel u, in rad/s; zero for a still target), in float32
// to keep the sweep's reads to 28 bytes.
type slot struct {
	id         int32
	x, y, z    float32
	wx, wy, wz float32
}

// finite reports whether every coordinate of s is finite: x - x is 0
// exactly for finite x.
func (s *slot) finite() bool {
	return s.x-s.x == 0 && s.y-s.y == 0 && s.z-s.z == 0 &&
		s.wx-s.wx == 0 && s.wy-s.wy == 0 && s.wz-s.wz == 0
}

// epochAt returns the epoch holding ts's bucket, building it unless
// another query or a prefetch got there first, in which case it waits for
// that build.
func (tx *TimedIndex) epochAt(ts float64) *epoch {
	e := tx.epochOf(ts)
	c, _ := tx.cell(e)
	if c.done.Load() {
		return c.ep
	}
	start := time.Now()
	c.once.Do(func() { tx.build(c, e) })
	tx.blockedNS.Add(int64(time.Since(start)))
	return c.ep
}

// epochOf returns the epoch holding ts's bucket.
func (tx *TimedIndex) epochOf(ts float64) int64 {
	b := int64(math.Floor(ts / tx.bucketS))
	e := b / epochBuckets
	if b%epochBuckets < 0 {
		e--
	}
	return e
}

// cell returns epoch e's cell, and whether it had none and an empty one
// was added (double-checked: the read-locked lookup may be stale).
func (tx *TimedIndex) cell(e int64) (c *epochCell, added bool) {
	tx.mu.RLock()
	c = tx.epochs[e]
	tx.mu.RUnlock()
	if c != nil {
		return c, false
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if c = tx.epochs[e]; c != nil {
		return c, false
	}
	c = &epochCell{}
	tx.epochs[e] = c
	return c, true
}

// Prefetch starts building the epoch holding ts on a helper goroutine,
// so that the queries that reach it later find it built. It does nothing
// for a static set or for an epoch that already has a cell: built, being
// built, or reached by a query. Wait waits for the builds it started.
func (tx *TimedIndex) Prefetch(ts float64) {
	if !tx.set.Moving {
		return
	}
	e := tx.epochOf(ts)
	c, added := tx.cell(e)
	if !added {
		return
	}
	tx.prefetches.Add(1)
	tx.pending.Add(1)
	go func() {
		defer tx.pending.Done()
		tx.tracksOnce.Do(tx.initTracks)
		c.once.Do(func() { tx.build(c, e) })
	}()
}

// Wait blocks until every build Prefetch started has finished. It must
// not run concurrently with Prefetch.
func (tx *TimedIndex) Wait() { tx.pending.Wait() }

// EpochStats returns the index's epoch-build totals so far.
func (tx *TimedIndex) EpochStats() EpochStats {
	return EpochStats{
		Builds:     tx.builds.Load(),
		Prefetches: tx.prefetches.Load(),
		BuildNS:    tx.buildNS.Load(),
		BlockedNS:  tx.blockedNS.Load(),
	}
}

// build builds epoch e into its cell and counts it; c.once runs it.
func (tx *TimedIndex) build(c *epochCell, e int64) {
	start := time.Now()
	c.ep = tx.buildEpoch(e)
	tx.buildNS.Add(int64(time.Since(start)))
	tx.builds.Add(1)
	c.done.Store(true)
}

// buildEpoch builds epoch e, reusing a retired epoch's storage: one
// counting sort by cell over the live targets, in place, so the build's
// only scratch is places. It takes the spare storage and the scratch
// under tx.mu and builds outside it.
func (tx *TimedIndex) buildEpoch(e int64) *epoch {
	tx.mu.Lock()
	ep, places := tx.spare, tx.places
	tx.spare, tx.places = nil, nil
	tx.mu.Unlock()
	if ep == nil {
		ep = &epoch{offsets: make([]int32, tx.grid.nrows*tx.grid.stride+1)}
	} else {
		clear(ep.offsets)
	}
	first := e * epochBuckets
	ep.mid = float64(first+epochBuckets/2) * tx.bucketS
	ep.loose = ep.loose[:0]
	lo, hi := float64(first), float64(first+epochBuckets-1)
	// Gather the live targets without a branch per target (liveness
	// flips from one target to the next, so a branch mispredicts): every
	// id is written, and the next one overwrites it unless it is live.
	places = slices.Grow(places[:0], len(tx.spans))[:len(tx.spans)]
	live := 0
	for i := range tx.spans {
		places[live] = int32(i)
		live += 1 - tx.spans[i].dead(lo, hi)
	}
	// Each member's cell then replaces the id it was read from, or an
	// earlier one, in places.
	ids := places[:live]
	places = places[:0]
	slots := slices.Grow(ep.slots[:0], live)
	for _, i := range ids {
		speed := tx.set.Targets[i].SpeedMS
		tr := &tx.tracks[i]
		v, w := tr.a, geo.Vec3{}
		if speed != 0 {
			if tr.nearPole() {
				continue
			}
			var u geo.Vec3
			v, u = tr.at(speed * ep.mid)
			w = u.Scale(speed / geo.EarthMeanRadius)
		}
		s := slot{i, float32(v.X), float32(v.Y), float32(v.Z), float32(w.X), float32(w.Y), float32(w.Z)}
		if !s.finite() {
			ep.loose = append(ep.loose, i)
			continue
		}
		k := int32(tx.edges.roughKey(v, tx.grid.stride))
		slots = append(slots, s)
		places = append(places, k)
		ep.offsets[k+1]++
	}
	// Shifted exclusive prefix sum, then each member's place in input
	// order, which advances each cell's start to its end, as in NewIndex.
	start := int32(0)
	for c := 1; c < len(ep.offsets); c++ {
		cnt := ep.offsets[c]
		ep.offsets[c] = start
		start += cnt
	}
	for j, k := range places {
		places[j] = ep.offsets[k+1]
		ep.offsets[k+1]++
	}
	// Move every slot to its place along the permutation's cycles: carry
	// a slot to its place, pick up the one there, and go on until the
	// cycle closes, marking each place filled.
	for j := range slots {
		d := places[j]
		if d == int32(j) {
			continue
		}
		m := slots[j]
		for d != int32(j) {
			m, slots[d] = slots[d], m
			d, places[d] = places[d], d
		}
		slots[j], places[j] = m, d
	}
	ep.slots = slots
	tx.mu.Lock()
	tx.places = places
	tx.mu.Unlock()
	return ep
}

// sweep is one query's walk over an epoch: it keeps the members of each
// span whose midpoint vector, carried dt seconds along its velocity,
// lies within sqrt(lim2) of center. A NaN distance or bound keeps the
// member.
type sweep struct {
	e      *epoch
	stride int64
	center geo.Vec3
	dt     float64
	lim2   float64
}

func (s sweep) span(out []int32, row, cLo, cHi int64) []int32 {
	base := row * s.stride
	for _, m := range s.e.slots[s.e.offsets[base+cLo]:s.e.offsets[base+cHi+1]] {
		dx := float64(m.x) + float64(m.wx)*s.dt - s.center.X
		dy := float64(m.y) + float64(m.wy)*s.dt - s.center.Y
		dz := float64(m.z) + float64(m.wz)*s.dt - s.center.Z
		if !(dx*dx+dy*dy+dz*dz > s.lim2) {
			out = append(out, m.id)
		}
	}
	return out
}

// OrderScratch is one goroutine's scratch for TimedIndex.Order; the zero
// value is ready to use.
type OrderScratch struct {
	ents []orderEnt
	perm []int32
	// keyed counts the bucket-start keys Order has computed; tests read it
	// to show that a query keys only the targets it orders.
	keyed int
}

// An orderEnt is a kept target keyed at the bucket start.
type orderEnt struct {
	key uint64 // cell<<32 | target
	at  int32  // position in kept
}

// Order returns the positions in kept of its targets in the order a
// full-set NewIndex at the start of ts's bucket lists them for the query
// (p, radiusM, ts), where kept holds distinct targets of a NearInto(p,
// radiusM, ts) result that are active at ts, in any order. That index
// lists a target when its walk visits the target's bucket-start cell,
// members of a cell in input order, so Order keys each kept target there
// (keyAt), sorts them by cell and target, and emits them along the same
// walk. For a static set NearInto already walks in that order, and Order
// returns kept's positions as they are. The result lives in sc until its
// next use.
func (tx *TimedIndex) Order(kept []int32, p geo.LatLon, radiusM, ts float64, sc *OrderScratch) []int32 {
	perm := sc.perm[:0]
	if !tx.set.Moving {
		for j := range kept {
			perm = append(perm, int32(j))
		}
		sc.perm = perm
		return perm
	}
	tx.tracksOnce.Do(tx.initTracks)
	b := int64(math.Floor(ts / tx.bucketS))
	at := float64(b) * tx.bucketS
	ents := sc.ents[:0]
	for j, i := range kept {
		if k := tx.keyAt(int(i), float64(b), at); k >= 0 {
			ents = append(ents, orderEnt{key: uint64(k)<<32 | uint64(uint32(i)), at: int32(j)})
		}
	}
	sc.keyed += len(kept)
	slices.SortFunc(ents, func(a, b orderEnt) int { return cmp.Compare(a.key, b.key) })
	sc.ents = ents
	sc.perm = near(&tx.grid, ordered{stride: tx.grid.stride, ents: ents}, p, radiusM, tx.maxSpeed*math.Abs(ts-at), perm)
	return sc.perm
}

// ordered emits, for each span a query walk visits, the positions of the
// kept targets whose cell lies in it: ents is sorted by cell, so a span's
// targets are one contiguous run.
type ordered struct {
	stride int64
	ents   []orderEnt
}

func (o ordered) span(out []int32, row, cLo, cHi int64) []int32 {
	lo := uint64(row*o.stride+cLo) << 32
	hi := uint64(row*o.stride+cHi+1) << 32
	j, _ := slices.BinarySearchFunc(o.ents, lo, func(e orderEnt, k uint64) int { return cmp.Compare(e.key, k) })
	for ; j < len(o.ents) && o.ents[j].key < hi; j++ {
		out = append(out, o.ents[j].at)
	}
	return out
}

// A liveSpan is the buckets a target's AppearS and VanishS floor to, the
// latter +Inf for a target that never vanishes (VanishS 0); NaN and ±Inf
// floors are kept as they are.
type liveSpan struct{ appear, vanish float64 }

func newLiveSpan(t *Target, bucketS float64) liveSpan {
	sp := liveSpan{appear: math.Floor(t.AppearS / bucketS), vanish: math.Inf(1)}
	if t.VanishS != 0 {
		sp.vanish = math.Floor(t.VanishS / bucketS)
	}
	return sp
}

// dead is 1 when the target cannot be active in any bucket of [lo, hi]
// and 0 when it may be, judged on the bucket each of its times floors to:
// bucketing is monotone in time, so ts >= AppearS implies ts's bucket is
// no earlier than AppearS's (and likewise for VanishS). NaN bounds never
// leave a target out. It computes no branch.
func (sp liveSpan) dead(lo, hi float64) int {
	return b2i(sp.appear > hi) | b2i(sp.vanish < lo)
}

// b2i is 1 for true and 0 for false, which the compiler computes
// without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keyAt returns moving target i's cell at bucket b's start at: -1 when
// the target is not live in the bucket, where ActiveAt rejects it at
// every time, and otherwise the cell a full-set NewIndex at the start
// files it in. Callers have built the tracks.
func (tx *TimedIndex) keyAt(i int, b, at float64) int64 {
	if tx.spans[i].dead(b, b) != 0 {
		return -1
	}
	return tx.grid.keyOf(tx.set.Targets[i].PosAt(at))
}

// Outside reports whether target i's position at elapsed time ts provably
// lies outside c, judged from its unit-vector course by chord distance.
// False means the target may be inside: the caller applies its exact test
// to Target.PosAt(ts). Static sets, still targets and courses starting
// near a pole are never judged here.
func (tx *TimedIndex) Outside(i int32, ts float64, c *Cap) bool {
	t := &tx.set.Targets[i]
	if !tx.set.Moving || t.SpeedMS == 0 {
		return false
	}
	tx.tracksOnce.Do(tx.initTracks)
	tr := &tx.tracks[i]
	if tr.nearPole() {
		return false
	}
	v, _ := tr.at(t.SpeedMS * ts)
	d := v.Sub(c.center)
	return d.Dot(d) > c.chord2
}

func (tx *TimedIndex) initTracks() {
	tx.tracks = make([]track, len(tx.set.Targets))
	tx.spans = make([]liveSpan, len(tx.set.Targets))
	for i := range tx.set.Targets {
		t := &tx.set.Targets[i]
		if t.SpeedMS > tx.maxSpeed {
			tx.maxSpeed = t.SpeedMS
		}
		tx.tracks[i] = newTrack(t.Pos, t.HeadingDeg)
		tx.spans[i] = newLiveSpan(t, tx.bucketS)
		if t.SpeedMS != 0 && tx.tracks[i].nearPole() {
			tx.polar = append(tx.polar, int32(i))
		}
	}
	tx.edges = newCellEdges(tx.grid.cellDeg)
}

// track is a moving target's great circle as two unit vectors
// (Earth-centred, x toward lon 0 on the equator, z toward the north
// pole): a is the start point and b the initial direction of travel, so
// after travelling distM the target is at a·cos δ + b·sin δ with δ =
// distM/EarthMeanRadius -- the point geo.Destination computes, up to
// rounding, without its asin and atan2.
type track struct{ a, b geo.Vec3 }

func newTrack(p geo.LatLon, bearingDeg float64) track {
	sinLat, cosLat := math.Sincos(geo.Deg2Rad(p.Lat))
	sinLon, cosLon := math.Sincos(geo.Deg2Rad(p.Lon))
	sinBrg, cosBrg := math.Sincos(geo.Deg2Rad(bearingDeg))
	// b = north·cos(bearing) + east·sin(bearing) at the start point.
	return track{
		a: geo.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat},
		b: geo.Vec3{
			X: -sinLat*cosLon*cosBrg - sinLon*sinBrg,
			Y: -sinLat*sinLon*cosBrg + cosLon*sinBrg,
			Z: cosLat * cosBrg,
		},
	}
}

// at returns the unit vector distM along the course, with δ computed as
// geo.Destination computes it, and the unit direction of travel there,
// from the same Sincos.
func (tr *track) at(distM float64) (pos, dir geo.Vec3) {
	sinD, cosD := math.Sincos(distM / geo.EarthMeanRadius)
	pos = geo.Vec3{
		X: tr.a.X*cosD + tr.b.X*sinD,
		Y: tr.a.Y*cosD + tr.b.Y*sinD,
		Z: tr.a.Z*cosD + tr.b.Z*sinD,
	}
	dir = geo.Vec3{
		X: tr.b.X*cosD - tr.a.X*sinD,
		Y: tr.b.Y*cosD - tr.a.Y*sinD,
		Z: tr.b.Z*cosD - tr.a.Z*sinD,
	}
	return pos, dir
}

// nearPole reports a course starting within ~6 km of a pole (cos lat <
// 1e-3). There geo.Destination's longitude is dominated by rounding --
// from the pole itself it is off by up to the distance travelled -- so
// only the exact path reproduces Target.PosAt's cell or distance.
func (tr *track) nearPole() bool { return tr.a.X*tr.a.X+tr.a.Y*tr.a.Y < 1e-6 }

// A Cap is the set of points within a great-circle radius of a centre, in
// the unit-vector form TimedIndex.Outside tests against.
type Cap struct {
	center geo.Vec3
	// chord2 is the squared chord of the radius plus capMarginM.
	chord2 float64
}

// capMarginM pads a Cap's radius so that rounding cannot reject a point
// the exact test accepts. The unit-vector position differs from
// Target.PosAt by well under a millimetre away from the poles and by at
// most ~10 cm at one (asin's conditioning there), and the haversine
// distance rounds far below either.
const capMarginM = 1.0

// NewCap returns the cap of points within radiusM of center on the
// mean-radius sphere, the sphere geo.GreatCircleDistance measures on.
func NewCap(center geo.LatLon, radiusM float64) Cap {
	sinLat, cosLat := math.Sincos(geo.Deg2Rad(center.Lat))
	sinLon, cosLon := math.Sincos(geo.Deg2Rad(center.Lon))
	c := Cap{center: geo.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}, chord2: math.Inf(1)}
	if arc := (radiusM + capMarginM) / geo.EarthMeanRadius; arc < math.Pi {
		chord := 2 * math.Sin(arc/2)
		c.chord2 = chord * chord
	}
	return c
}

// cellEdges is a grid's cell boundaries in unit-vector form, for keying a
// position without converting it to latitude and longitude. Row edge k
// lies at latitude -90 + k*cellDeg and column edge k on the meridian at
// longitude -180 + k*cellDeg, the values at which Index.key's floors step.
type cellEdges struct {
	// rowSin[k] is sin of row edge k's latitude, +Inf past +90 degrees:
	// sin is not monotone there, and the +Inf entries (the last is always
	// one) end the row search.
	rowSin []float64
	// zRow[j] is the row of the low end of z bin j, z = -1 + 2j/zBins:
	// where the row search for any z in the bin starts.
	zRow       []int32
	colsPerRad float64
}

// zBins is the resolution of the z-to-row table; rows are at least ~2
// bins tall up to the polar cutoff at 2-degree cells, so the row search
// takes a step or two at most.
const zBins = 8192

func newCellEdges(cellDeg float64) cellEdges {
	if cellDeg <= 0 {
		cellDeg = 2
	}
	nrows := int(math.Ceil(180/cellDeg)) + 1
	e := cellEdges{
		rowSin:     make([]float64, nrows+1),
		zRow:       make([]int32, zBins+1),
		colsPerRad: 180 / (math.Pi * cellDeg),
	}
	for k := range e.rowSin {
		lat := -90 + float64(k)*cellDeg
		if lat > 90 {
			e.rowSin[k] = math.Inf(1)
			continue
		}
		e.rowSin[k] = math.Sin(geo.Deg2Rad(lat))
	}
	r := int32(0)
	for j := range e.zRow {
		z := -1 + 2*float64(j)/zBins
		for int(r)+1 < nrows && e.rowSin[r+1] <= z {
			r++
		}
		e.zRow[j] = r
	}
	return e
}

// roughKey returns a cell key of unit vector p in a grid of the given
// row stride: the row from the z-to-row table and row edges, the column
// from atan2Guess, so a position within rounding of a row edge, or within
// atan2Guess's error of a column edge, may land in either cell. A NaN
// vector (a course with a NaN speed or heading) keys into cell 0, where
// Index.key files a NaN position.
func (e *cellEdges) roughKey(p geo.Vec3, stride int64) int64 {
	z := p.Z
	if !(z >= -1) {
		z = -1
	} else if z > 1 {
		z = 1
	}
	r := e.zRow[int((z+1)*(zBins/2))]
	for z >= e.rowSin[r+1] {
		r++
	}
	c := int64((atan2Guess(p.Y, p.X) + math.Pi) * e.colsPerRad)
	return int64(r)*stride + max(0, min(c, stride-1))
}

// atan2Guess approximates math.Atan2(y, x) to within ~1e-5 rad with a
// cubic-in-a² polynomial for atan on [0, 1] and octant folding: close
// enough that the column it picks lies within ~64 m of the cell the exact
// longitude falls in, which epochMarginM covers. x and y must not both be
// zero.
func atan2Guess(y, x float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	swap := ay > ax
	a := ay / ax
	if swap {
		a = ax / ay
	}
	s := a * a
	r := ((-0.0464964749*s+0.15931422)*s-0.327622764)*s*a + a
	if swap {
		r = math.Pi/2 - r
	}
	if x < 0 {
		r = math.Pi - r
	}
	if y < 0 {
		r = -r
	}
	return r
}

// Retire drops the epochs of a moving set whose buckets all end at or
// before ts, keeping one for its storage. The simulator calls it at each
// window boundary, since every later query is at or after the boundary; a
// query into a retired epoch would simply rebuild it. Retire must not run
// concurrently with queries: a retired epoch's storage is handed to the
// next build. It never waits for a build: it skips any epoch whose build
// has not finished, which only Prefetch leaves running.
func (tx *TimedIndex) Retire(ts float64) {
	if !tx.set.Moving {
		return
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for e, c := range tx.epochs {
		if !c.done.Load() || float64((e+1)*epochBuckets)*tx.bucketS > ts {
			continue
		}
		delete(tx.epochs, e)
		tx.spare = c.ep
	}
}

// Set returns the underlying target set.
func (tx *TimedIndex) Set() *Set { return tx.set }
