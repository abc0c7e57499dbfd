package dataset

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
	ix.fill(func(i int) int64 { return ix.keyOf(s.Targets[i].PosAt(atTime)) }, make([]int64, len(s.Targets)))
	return ix
}

// fill (re)builds the cells, placing target i in cell key(i) or, when
// key(i) is negative, in none, and reusing any storage a previous fill
// left behind. keys is scratch with one entry per target. maxSpeed covers
// every target, so a query's padding -- and with it the cells it scans,
// in order -- is the same whichever targets an index leaves out.
func (ix *Index) fill(key func(i int) int64, keys []int64) {
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
		if v := targets[i].SpeedMS; v > ix.maxSpeed {
			ix.maxSpeed = v
		}
		k := key(i)
		keys[i] = k
		if k < 0 {
			continue
		}
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
	return ix.grid.near(ix, p, radiusM, ix.maxSpeed*math.Abs(queryTime-ix.atTime), out)
}

// cellSpans is cell storage that a query walk reads.
type cellSpans interface {
	// span appends the members of columns [cLo, cHi] of a row, cell by
	// cell, each cell's members in input order.
	span(out []int32, row, cLo, cHi int64) []int32
}

// near appends the members of every cell src holds within radiusM+pad of
// p: NearInto's walk, shared by full indices and moving-set buckets so
// both read the same rows and column spans in the same order.
func (g *grid) near(src cellSpans, p geo.LatLon, radiusM, pad float64, out []int32) []int32 {
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
	for lat := latLo; lat <= latHi+g.cellDeg; lat += g.cellDeg {
		if lat < -90-g.cellDeg || lat > 90+g.cellDeg {
			continue
		}
		row := int64(math.Floor((lat + 90) / g.cellDeg))
		if row < 0 || row >= g.nrows {
			continue
		}
		// Clamp a padded span approaching one full row to a single
		// full-row pass (every cell of the row, including the extra seam
		// column holding lon = +180) so the walk never revisits its
		// starting cell (the 2-cell slack absorbs column-flooring at both
		// ends).
		if poleIn || 2*lonWin+3*g.cellDeg >= 360 {
			out = src.span(out, row, 0, g.stride-1)
			continue
		}
		// Column span [lo, hi] with one cell of slack, split at the
		// antimeridian. A split range always touches lon = ±180, whose
		// targets live in the extra seam column (WrapLonDeg maps -180 to
		// +180, past the last regular column) — the old lon-walk keyed its
		// -180 step into that seam column and skipped the first regular
		// cell of the row.
		lo := lonQ - lonWin
		hi := lonQ + lonWin + g.cellDeg
		switch {
		case lo < -180:
			out = g.cols(src, out, row, g.col(lo+360), g.stride-2)
			out = src.span(out, row, g.stride-1, g.stride-1)
			out = g.cols(src, out, row, 0, g.col(hi))
		case hi >= 180:
			out = g.cols(src, out, row, g.col(lo), g.stride-2)
			out = src.span(out, row, g.stride-1, g.stride-1)
			out = g.cols(src, out, row, 0, g.col(hi-360))
		default:
			out = g.cols(src, out, row, g.col(lo), g.col(hi))
		}
	}
	return out
}

// col maps an unwrapped longitude to its column index (no range clamping).
func (g *grid) col(lon float64) int64 {
	return int64(math.Floor((lon + 180) / g.cellDeg))
}

// cols appends src's cells of columns [cLo, cHi] of a row, clamped to the
// regular-column range.
func (g *grid) cols(src cellSpans, out []int32, row, cLo, cHi int64) []int32 {
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

// TimedIndex maintains per-time-bucket indices for moving target sets,
// built lazily as the simulation advances. Bucket b holds only the
// targets that may be active at some time in [b*bucketS, (b+1)*bucketS),
// each keyed into its cell at the bucket start from a unit-vector course
// cached per moving target (see track). Every cell holds exactly the live
// targets a full-set NewIndex at the bucket start puts there, in the same
// order, so a query filtered by ActiveAt returns the same candidates. A
// bucket fills its cells block by block, on the first query that reads
// a block, keying only the targets an hourly epoch index places near the
// block (see buildBlock): the cells the simulator's queries read hold a
// few percent of the live targets. Static sets use one full-set NewIndex
// bucket and build no cache.
//
// Near, NearInto and Outside are safe for concurrent use: the parallel
// simulator shares one TimedIndex across worker goroutines, so bucket and
// block construction is mutex-guarded, and a completed Index or block is
// immutable, published before any reader can reach it, and read without
// locking. Retire recycles bucket storage and must not run concurrently
// with queries.
type TimedIndex struct {
	set     *Set
	grid    grid
	bucketS float64
	// bcols is the number of block columns and nblocks the number of
	// blocks: the grid's rows and columns in runs of blockSize.
	bcols, nblocks int64

	// tracks caches every moving target's course and edges the grid's
	// cell boundaries, both in unit-vector form; polar lists the moving
	// targets whose course starts near a pole, and maxSpeed is the
	// largest target speed. They are built on the first query of a moving
	// set or Outside call, so creating an index costs nothing up front;
	// static sets never build them.
	tracksOnce sync.Once
	tracks     []track
	edges      cellEdges
	polar      []int32
	maxSpeed   float64

	mu      sync.RWMutex
	buckets map[int64]bucketIndex
	epochs  map[int64]*Index
	// spare holds retired buckets and spareEpoch a retired epoch index,
	// whose storage later builds reuse; keys, cands and members are build
	// scratch.
	spare      []*bucket
	spareEpoch *Index
	keys       []int64
	cands      []int32
	members    []uint64
	// exact counts the keys of moving targets that fell back from the
	// unit-vector test to Target.PosAt, and keyed every bucket key of a
	// live target; tests read them to show that the fallback runs and
	// that buckets key few targets.
	exact int
	keyed int
}

const (
	// epochBuckets is the number of buckets one epoch index serves, and
	// blockSize the side of a block in cells. With the simulator's
	// 2-degree cells and 600 s buckets, an hour-long epoch keyed at its
	// midpoint pads block queries by at most 30 minutes of flight. Block
	// builds over four 24 h airplane runs (8 satellites, 2-CPU VM, two
	// runs each) took 1.15-1.22 s at 6 buckets and 4 cells, against
	// 1.42-1.51 s at 3 buckets, 1.41-1.56 s at 12, 1.19-1.27 s at 2 cells
	// and 1.45-1.50 s at 8.
	epochBuckets = 6
	blockSize    = 4
	// blockMarginM widens a block's candidate query past the rounding of
	// epoch keys: the unit-vector position lies within a millimetre of
	// Target.PosAt's, and atan2Guess's column within ~64 m of the cell
	// the exact longitude falls in.
	blockMarginM = 1e3
)

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
	g := newGrid(cellDeg)
	bcols := (g.stride + blockSize - 1) / blockSize
	brows := (g.nrows + blockSize - 1) / blockSize
	return &TimedIndex{
		set: s, grid: g, bucketS: bucketS, bcols: bcols, nblocks: brows * bcols,
		buckets: make(map[int64]bucketIndex), epochs: make(map[int64]*Index),
	}
}

// Near returns candidate indices near p at elapsed time ts.
func (tx *TimedIndex) Near(p geo.LatLon, radiusM float64, ts float64) []int32 {
	return tx.NearInto(p, radiusM, ts, nil)
}

// NearInto is Near appending into a caller-owned slice. The scratch slice
// stays private to the calling goroutine; only the bucket lookup and the
// bucket and block builds are synchronized.
func (tx *TimedIndex) NearInto(p geo.LatLon, radiusM float64, ts float64, out []int32) []int32 {
	if !tx.set.Moving {
		// Static sets need a single bucket.
		ts = 0
	}
	b := int64(math.Floor(ts / tx.bucketS))
	tx.mu.RLock()
	bk := tx.buckets[b]
	tx.mu.RUnlock()
	if bk == nil {
		bk = tx.build(b)
	}
	return bk.NearInto(p, radiusM, ts, out)
}

// bucketIndex answers one bucket's queries: a full-set Index for a static
// set, a block-filled bucket for a moving one.
type bucketIndex interface {
	NearInto(p geo.LatLon, radiusM float64, queryTime float64, out []int32) []int32
}

// build returns bucket b, creating it under the write lock unless another
// worker got there first (double-checked: the caller's read-locked lookup
// may be stale). A moving set's bucket starts with no block built.
func (tx *TimedIndex) build(b int64) bucketIndex {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if bk := tx.buckets[b]; bk != nil {
		return bk
	}
	if !tx.set.Moving {
		ix := NewIndex(tx.set, tx.grid.cellDeg, 0)
		tx.buckets[b] = ix
		return ix
	}
	tx.tracksOnce.Do(tx.initTracks)
	var bk *bucket
	if n := len(tx.spare); n > 0 {
		bk, tx.spare = tx.spare[n-1], tx.spare[:n-1]
	} else {
		bk = &bucket{tx: tx, blocks: make([]atomic.Pointer[block], tx.nblocks)}
	}
	bk.b, bk.at = b, float64(b)*tx.bucketS
	tx.buckets[b] = bk
	return bk
}

// A bucket is one time bucket of a moving set, its cells filled block by
// block: cell (row, col) is cell (row%blockSize)*blockSize +
// col%blockSize of block (row/blockSize)*bcols + col/blockSize.
type bucket struct {
	tx *TimedIndex
	b  int64
	at float64 // the bucket start, where its targets are keyed
	// blocks[j] is block j once built.
	blocks []atomic.Pointer[block]
	// Build state, guarded by tx.mu: the keys computed so far, and the
	// storage of the blocks' members. arena only grows: members that do
	// not fit go to a fresh array, and built blocks keep the one they
	// were written to.
	keys  keyCache
	arena []int32
}

// A block holds the cells of one built block, immutable once published:
// cell m holds ids[off[m]:off[m+1]], in input order.
type block struct {
	off [blockSize*blockSize + 1]int32
	ids []int32
}

// emptyBlock is every block without members.
var emptyBlock = &block{}

// NearInto reads the cells a full-set Index at the bucket start would, in
// the same order, building each block on the first read.
func (bk *bucket) NearInto(p geo.LatLon, radiusM float64, queryTime float64, out []int32) []int32 {
	tx := bk.tx
	return tx.grid.near(bk, p, radiusM, tx.maxSpeed*math.Abs(queryTime-bk.at), out)
}

// span appends the cells of columns [cLo, cHi] of a row: one contiguous
// range of each block the span crosses.
func (bk *bucket) span(out []int32, row, cLo, cHi int64) []int32 {
	first := row / blockSize * bk.tx.bcols
	m := row % blockSize * blockSize
	for c := cLo; c <= cHi; {
		bc := c / blockSize
		end := min(cHi, bc*blockSize+blockSize-1)
		blk := bk.blocks[first+bc].Load()
		if blk == nil {
			blk = bk.tx.buildBlock(bk, first+bc)
		}
		lo := m + c - bc*blockSize
		out = append(out, blk.ids[blk.off[lo]:blk.off[lo+end-c+1]]...)
		c = end + 1
	}
	return out
}

// buildBlock returns block j of bk, building and publishing it under the
// write lock unless another worker got there first. Its members are the
// live targets whose bucket-start key (keyAt, once per bucket) lies in
// the block, found among a superset: the targets an epoch index of the
// surrounding hour, keyed at the hour's midpoint, holds within the
// block's covering disk -- padded by how far any target travels between
// the midpoint and the bucket start, since a course's displacement is at
// most its arc -- plus every course starting near a pole, whose
// Target.PosAt longitude is rounding noise and so obeys no such bound.
func (tx *TimedIndex) buildBlock(bk *bucket, j int64) *block {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if blk := bk.blocks[j].Load(); blk != nil {
		return blk
	}
	r0, c0 := j/tx.bcols*blockSize, j%tx.bcols*blockSize
	center, radiusM := tx.grid.blockCap(r0, c0)
	e := bk.b / epochBuckets
	if bk.b%epochBuckets < 0 {
		e--
	}
	tx.cands = tx.epoch(e).NearInto(center, radiusM+blockMarginM, bk.at, tx.cands[:0])
	tx.cands = append(tx.cands, tx.polar...)
	members := tx.members[:0]
	for _, i := range tx.cands {
		k := bk.key(i)
		if k < 0 {
			continue
		}
		r, c := k/tx.grid.stride-r0, k%tx.grid.stride-c0
		if r < 0 || r >= blockSize || c < 0 || c >= blockSize {
			continue
		}
		members = append(members, uint64(r*blockSize+c)<<32|uint64(i))
	}
	tx.members = members
	blk := emptyBlock
	if len(members) > 0 {
		// Cell by cell, each in input order: fill's order.
		slices.Sort(members)
		blk = &block{ids: bk.alloc(len(members))}
		for n, v := range members {
			blk.ids[n] = int32(uint32(v))
			blk.off[v>>32+1]++
		}
		for m := 1; m < len(blk.off); m++ {
			blk.off[m] += blk.off[m-1]
		}
	}
	bk.blocks[j].Store(blk)
	return blk
}

// key returns target i's cell in the bucket, keying it on first use.
// Callers hold tx.mu.
func (bk *bucket) key(i int32) int64 {
	c := &bk.keys
	if 2*(c.n+1) > len(c.slots) {
		c.grow()
	}
	h, ok := c.find(i)
	if ok {
		return int64(int32(uint32(c.slots[h])))
	}
	k := bk.tx.keyAt(int(i), float64(bk.b), bk.at)
	c.slots[h] = uint64(i+1)<<32 | uint64(uint32(k))
	c.n++
	return k
}

// alloc returns storage for n members from the arena.
func (bk *bucket) alloc(n int) []int32 {
	used := len(bk.arena)
	if cap(bk.arena)-used < n {
		bk.arena = make([]int32, 0, max(2*cap(bk.arena), n, 1024))
		used = 0
	}
	bk.arena = bk.arena[:used+n]
	return bk.arena[used : used+n : used+n]
}

// reset empties a retired bucket for reuse, keeping its storage.
func (bk *bucket) reset() {
	for j := range bk.blocks {
		bk.blocks[j].Store(nil)
	}
	bk.keys.reset()
	bk.arena = bk.arena[:0]
}

// keyCache holds a bucket's computed keys: an open-addressed table of
// (target+1)<<32 | uint32(key) slots, 0 when empty, at most half full.
// It is sized by the targets keyed, not the set. A map[int32]int32 in
// its place made block builds ~12% slower over four 24 h airplane runs.
type keyCache struct {
	slots []uint64
	n     int
	shift uint
}

// find returns the slot holding target i and true, or the empty slot
// where i belongs and false.
func (c *keyCache) find(i int32) (int, bool) {
	mask := len(c.slots) - 1
	tag := uint64(i+1) << 32
	h := int(uint32(i) * 0x9e3779b9 >> c.shift)
	for ; c.slots[h] != 0; h = (h + 1) & mask {
		if c.slots[h]&^math.MaxUint32 == tag {
			return h, true
		}
	}
	return h, false
}

// grow doubles the table (to 1024 slots at first) and re-inserts every
// key.
func (c *keyCache) grow() {
	old := c.slots
	c.slots = make([]uint64, max(2*len(old), 1024))
	c.shift = uint(32 - bits.TrailingZeros(uint(len(c.slots))))
	for _, s := range old {
		if s != 0 {
			h, _ := c.find(int32(s>>32) - 1)
			c.slots[h] = s
		}
	}
}

func (c *keyCache) reset() {
	clear(c.slots)
	c.n = 0
}

// epoch returns epoch index e, building it on first use; callers hold
// tx.mu. It is a full Index at the midpoint of the epoch's buckets
// [epochBuckets*e, epochBuckets*(e+1)) over the targets live in any of
// them, except the pole-start courses of polar. Targets that appear after
// the midpoint or vanish before it are keyed where their course
// extrapolates: bucket liveness stays keyAt's call.
func (tx *TimedIndex) epoch(e int64) *Index {
	if ix := tx.epochs[e]; ix != nil {
		return ix
	}
	ix := tx.spareEpoch
	tx.spareEpoch = nil
	if ix == nil {
		ix = &Index{grid: tx.grid, set: tx.set}
	}
	first := e * epochBuckets
	mid := float64(first+epochBuckets/2) * tx.bucketS
	ix.atTime = mid
	if len(tx.keys) < len(tx.set.Targets) {
		tx.keys = make([]int64, len(tx.set.Targets))
	}
	lo, hi := float64(first), float64(first+epochBuckets-1)
	ix.fill(func(i int) int64 { return tx.epochKey(i, lo, hi, mid) }, tx.keys)
	tx.epochs[e] = ix
	return ix
}

// epochKey returns target i's cell in the epoch index of buckets [lo, hi]
// keyed at mid: -1 when keyAt leaves the target out of every one of
// those buckets or its course starts near a pole, and otherwise the cell
// of its unit-vector position at mid, without keyAt's margin tests. An
// epoch key only selects candidates, so it may be a cell off where the
// position lies within rounding of an edge; blockMarginM covers that.
func (tx *TimedIndex) epochKey(i int, lo, hi, mid float64) int64 {
	t := &tx.set.Targets[i]
	if math.Floor(t.AppearS/tx.bucketS) > hi || (t.VanishS != 0 && math.Floor(t.VanishS/tx.bucketS) < lo) {
		return -1
	}
	if t.SpeedMS == 0 {
		return tx.grid.keyOf(t.Pos)
	}
	tr := &tx.tracks[i]
	if tr.nearPole() {
		return -1
	}
	return tx.edges.roughKey(tr.at(t.SpeedMS*mid), tx.grid.stride)
}

// blockCap returns a centre and radius whose disk holds every position
// keyed into the block of rows r0..r0+blockSize-1 and columns
// c0..c0+blockSize-1: the farthest corner of the block's lat/lon box from
// its centre. Distance from the centre grows along each parallel away
// from the centre meridian and, for a box less than a hemisphere wide, is
// largest at an end of each bounding meridian, so a corner is farthest.
func (g *grid) blockCap(r0, c0 int64) (geo.LatLon, float64) {
	clamp := func(v, lim float64) float64 { return math.Max(-lim, math.Min(lim, v)) }
	latLo := clamp(-90+float64(r0)*g.cellDeg, 90)
	latHi := clamp(-90+float64(r0+blockSize)*g.cellDeg, 90)
	lonLo := clamp(-180+float64(c0)*g.cellDeg, 180)
	lonHi := clamp(-180+float64(c0+blockSize)*g.cellDeg, 180)
	center := geo.LatLon{Lat: (latLo + latHi) / 2, Lon: (lonLo + lonHi) / 2}
	if lonHi-lonLo >= 180 {
		return center, math.Pi * geo.EarthMeanRadius
	}
	r := 0.0
	for _, lat := range [2]float64{latLo, latHi} {
		for _, lon := range [2]float64{lonLo, lonHi} {
			r = math.Max(r, geo.GreatCircleDistance(center, geo.LatLon{Lat: lat, Lon: lon}))
		}
	}
	return center, r
}

// keyAt returns moving target i's cell at bucket b's start at. It is -1
// when the target appears after the bucket or vanishes before it:
// bucketing is monotone in time, so ts >= AppearS implies ts's bucket is
// no earlier than AppearS's (and likewise for VanishS), and ActiveAt
// rejects such a target at every time in the bucket. NaN bounds never
// leave a target out. Otherwise it is the cell of Target.PosAt(at), read
// off the target's unit-vector course unless the position lies too close
// to a cell edge (or a pole) for the cheap test to be sure. Still
// targets, and every target at t = 0, sit at Pos, which keys without
// trigonometry. Callers hold tx.mu.
func (tx *TimedIndex) keyAt(i int, b, at float64) int64 {
	t := &tx.set.Targets[i]
	if math.Floor(t.AppearS/tx.bucketS) > b || (t.VanishS != 0 && math.Floor(t.VanishS/tx.bucketS) < b) {
		return -1
	}
	tx.keyed++
	if t.SpeedMS != 0 && at != 0 {
		if tr := &tx.tracks[i]; !tr.nearPole() {
			if k, ok := tx.edges.key(tr.at(t.SpeedMS*at), tx.grid.stride); ok {
				return k
			}
		}
		tx.exact++
	}
	return tx.grid.keyOf(t.PosAt(at))
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
	d := tr.at(t.SpeedMS * ts).Sub(c.center)
	return d.Dot(d) > c.chord2
}

func (tx *TimedIndex) initTracks() {
	tx.tracks = make([]track, len(tx.set.Targets))
	for i := range tx.set.Targets {
		t := &tx.set.Targets[i]
		if t.SpeedMS > tx.maxSpeed {
			tx.maxSpeed = t.SpeedMS
		}
		if t.SpeedMS != 0 {
			tx.tracks[i] = newTrack(t.Pos, t.HeadingDeg)
			if tx.tracks[i].nearPole() {
				tx.polar = append(tx.polar, int32(i))
			}
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
// geo.Course.At computes it.
func (tr *track) at(distM float64) geo.Vec3 {
	sinD, cosD := math.Sincos(distM / geo.EarthMeanRadius)
	return geo.Vec3{
		X: tr.a.X*cosD + tr.b.X*sinD,
		Y: tr.a.Y*cosD + tr.b.Y*sinD,
		Z: tr.a.Z*cosD + tr.b.Z*sinD,
	}
}

// nearPole reports a course starting within ~6 km of a pole (cos lat <
// 1e-3). There geo.Course.At's longitude is dominated by rounding -- from
// the pole itself it is off by up to the distance travelled -- so only
// the exact path reproduces Target.PosAt's cell or distance.
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
	zRow []int32
	// colCos, colSin are the cosine and sine of column edge k's longitude:
	// the meridian's direction in the equatorial plane.
	colCos, colSin []float64
	colsPerRad     float64
}

const (
	// zBins is the resolution of the z-to-row table; rows are at least
	// ~2 bins tall up to the polar cutoff at 2-degree cells, so the row
	// search takes a step or two at most.
	zBins = 8192
	// keyMargin is how close, in sin(latitude) and in meridian distance
	// (the sine of the longitude offset times cos(latitude)), a position
	// may come to a cell edge before keying falls back to the exact path.
	// Target.PosAt's own rounding stays below ~1e-11 in both wherever the
	// cheap path runs.
	keyMargin = 1e-9
)

// maxCheapZ = sin(88 degrees): poleward of it asin's conditioning and the
// shrinking cos(latitude) erode the margins, so keys take the exact path.
var maxCheapZ = math.Sin(geo.Deg2Rad(88))

func newCellEdges(cellDeg float64) cellEdges {
	if cellDeg <= 0 {
		cellDeg = 2
	}
	nrows := int(math.Ceil(180/cellDeg)) + 1
	ncols := int(math.Ceil(360/cellDeg)) + 1
	e := cellEdges{
		rowSin:     make([]float64, nrows+1),
		zRow:       make([]int32, zBins+1),
		colCos:     make([]float64, ncols),
		colSin:     make([]float64, ncols),
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
	for k := range e.colCos {
		e.colSin[k], e.colCos[k] = math.Sincos(geo.Deg2Rad(-180 + float64(k)*cellDeg))
	}
	return e
}

// key returns the cell key of unit vector p in a grid of the given row
// stride, and false when p lies within keyMargin of a cell edge, poleward
// of 88 degrees, or outside the interior columns (the first and last
// regular columns and the seam column, where Index.key's longitude
// wrapping decides). When it reports true the key equals Index.key of
// Target.PosAt's latitude and longitude for the same point.
func (e *cellEdges) key(p geo.Vec3, stride int64) (int64, bool) {
	z := p.Z
	if !(z >= -maxCheapZ && z <= maxCheapZ) {
		return 0, false
	}
	r := e.zRow[int((z+1)*(zBins/2))]
	for z >= e.rowSin[r+1] {
		r++
	}
	if z-e.rowSin[r] < keyMargin || e.rowSin[r+1]-z < keyMargin {
		return 0, false
	}
	// Guess the column from an approximate longitude, then confirm it by
	// the sides of its two edge meridians: colCos[k]*y - colSin[k]*x is
	// cos(lat)·sin(lon - edge k), positive east of the edge.
	c := int64((atan2Guess(p.Y, p.X) + math.Pi) * e.colsPerRad)
	for step := 0; ; step++ {
		if c < 1 || c > stride-3 || step > 2 {
			return 0, false
		}
		west := e.colCos[c]*p.Y - e.colSin[c]*p.X
		east := e.colSin[c+1]*p.X - e.colCos[c+1]*p.Y
		switch {
		case west < 0:
			c--
		case east < 0:
			c++
		case west < keyMargin || east < keyMargin:
			return 0, false
		default:
			return int64(r)*stride + c, true
		}
	}
}

// roughKey returns a cell key of unit vector p in a grid of the given
// row stride: key's row and column search without its margin tests or
// range limits, so a position within rounding of an edge, or within
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
// enough that the column it picks is off by at most one near an edge,
// which cellEdges.key's edge tests then correct. x and y must not both be
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

// Retire drops the buckets of a moving set that end at or before ts,
// keeping up to maxSpare of them for their storage, and the epoch indices
// whose buckets all do. The simulator calls it at each window boundary,
// since every later query is at or after the boundary; a query into a
// retired bucket would simply rebuild it. Static sets keep their single
// bucket. Retire must not run concurrently with queries: a retired
// bucket's storage is handed to the next build.
func (tx *TimedIndex) Retire(ts float64) {
	if !tx.set.Moving {
		return
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for b, bi := range tx.buckets {
		if float64(b+1)*tx.bucketS > ts {
			continue
		}
		delete(tx.buckets, b)
		if len(tx.spare) < maxSpare {
			bk := bi.(*bucket)
			bk.reset()
			tx.spare = append(tx.spare, bk)
		}
	}
	for e, ix := range tx.epochs {
		if float64((e+1)*epochBuckets)*tx.bucketS > ts {
			continue
		}
		delete(tx.epochs, e)
		tx.spareEpoch = ix
	}
}

// Set returns the underlying target set.
func (tx *TimedIndex) Set() *Set { return tx.set }
