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
	ix.fill(func(i int) int64 { return ix.keyOf(s.Targets[i].PosAt(atTime)) }, make([]int64, len(s.Targets)))
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

// fill (re)builds the cells, placing target i in cell key(i) or, when
// key(i) is negative, in none, and reusing any storage a previous fill
// left behind. keys is scratch with one entry per target. maxSpeed covers
// every target, so a query's padding -- and with it the cells it scans,
// in order -- is the same whichever targets a bucket leaves out; a bucket
// leaves out only targets that ActiveAt would reject.
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

// cell returns cell k's member block. k must be in [0, nrows*stride).
func (ix *Index) cell(k int64) []int32 {
	return ix.arena[ix.offsets[k]:ix.offsets[k+1]]
}

// Set returns the underlying target set.
func (ix *Index) Set() *Set { return ix.set }

// keyOf returns the cell key of position p.
func (ix *Index) keyOf(p geo.LatLon) int64 { return ix.key(p.Lat, p.Lon) }

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
// (b+1)*bucketS), each keyed into its cell at the bucket start from a
// unit-vector course cached per moving target (see track), so a bucket
// costs a fraction of a full-set NewIndex. Every cell holds exactly the live
// targets a full-set NewIndex at the bucket start puts there, in the same
// order, so a query filtered by ActiveAt returns the same candidates.
// Static sets use one full-set bucket and build no cache.
//
// Near, NearInto and Outside are safe for concurrent use: the parallel
// simulator shares one TimedIndex across worker goroutines, so bucket
// construction is mutex-guarded (a completed Index is immutable and read
// without locking). Retire recycles bucket storage and must not run
// concurrently with queries.
type TimedIndex struct {
	set     *Set
	cellDeg float64
	bucketS float64

	// tracks caches every moving target's course and edges the grid's
	// cell boundaries, both in unit-vector form. They are built on first
	// use -- the first bucket build off t = 0 or Outside call -- so
	// creating an index costs nothing up front; static sets never build
	// them.
	tracksOnce sync.Once
	tracks     []track
	edges      cellEdges

	mu      sync.RWMutex
	buckets map[int64]*Index
	// spare holds retired buckets whose storage later builds reuse; keys
	// is the build scratch.
	spare []*Index
	keys  []int64
	// exact counts the keys of moving targets that fell back from the
	// unit-vector test to Target.PosAt; tests read it to show that the
	// fallback runs.
	exact int
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
	if len(tx.keys) < len(tx.set.Targets) {
		tx.keys = make([]int64, len(tx.set.Targets))
	}
	ix.atTime = at
	if tx.set.Moving {
		if at != 0 {
			tx.tracksOnce.Do(tx.initTracks)
		}
		ix.fill(func(i int) int64 { return tx.keyAt(ix, i, float64(b), at) }, tx.keys)
	} else {
		ix.fill(func(i int) int64 { return ix.keyOf(tx.set.Targets[i].PosAt(at)) }, tx.keys)
	}
	tx.buckets[b] = ix
	return ix
}

// keyAt returns moving target i's cell in ix, the index of bucket b, at
// the bucket start at. It is -1 when the target appears after the bucket
// or vanishes before it: bucketing is monotone in time, so ts >= AppearS
// implies ts's bucket is no earlier than AppearS's (and likewise for
// VanishS), and ActiveAt rejects such a target at every time in the
// bucket. NaN bounds never leave a target out. Otherwise it is the cell
// of Target.PosAt(at), read off the target's unit-vector course unless
// the position lies too close to a cell edge (or a pole) for the cheap
// test to be sure. Still targets, and every target at t = 0, sit at Pos,
// which keys without trigonometry. Callers hold tx.mu.
func (tx *TimedIndex) keyAt(ix *Index, i int, b, at float64) int64 {
	t := &tx.set.Targets[i]
	if math.Floor(t.AppearS/tx.bucketS) > b || (t.VanishS != 0 && math.Floor(t.VanishS/tx.bucketS) < b) {
		return -1
	}
	if t.SpeedMS != 0 && at != 0 {
		if tr := &tx.tracks[i]; !tr.nearPole() {
			if k, ok := tx.edges.key(tr.at(t.SpeedMS*at), ix.stride); ok {
				return k
			}
		}
		tx.exact++
	}
	return ix.keyOf(t.PosAt(at))
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
		if t := &tx.set.Targets[i]; t.SpeedMS != 0 {
			tx.tracks[i] = newTrack(t.Pos, t.HeadingDeg)
		}
	}
	tx.edges = newCellEdges(tx.cellDeg)
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
