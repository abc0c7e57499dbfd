package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"eagleeye/internal/geo"
)

func TestShipsCountAndValidity(t *testing.T) {
	s := Ships(1)
	if len(s.Targets) != ShipCount {
		t.Fatalf("ships = %d, want %d", len(s.Targets), ShipCount)
	}
	if s.Moving {
		t.Error("ships should be a static snapshot")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range s.Targets[:100] {
		if tgt.SpeedMS != 0 {
			t.Error("ship with nonzero speed")
		}
	}
}

func TestAirplanesCountAndMotion(t *testing.T) {
	s := Airplanes(1)
	if len(s.Targets) != AirplaneCount {
		t.Fatalf("planes = %d, want %d", len(s.Targets), AirplaneCount)
	}
	if !s.Moving {
		t.Error("airplanes should be moving")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Speeds at airliner scale.
	for _, tgt := range s.Targets[:200] {
		if tgt.SpeedMS < 180 || tgt.SpeedMS > 300 {
			t.Errorf("plane speed %v out of range", tgt.SpeedMS)
		}
	}
	// Motion: position changes with time at roughly speed x time.
	tgt := s.Targets[0]
	d := geo.GreatCircleDistance(tgt.PosAt(0), tgt.PosAt(100))
	if math.Abs(d-tgt.SpeedMS*100) > 5 {
		t.Errorf("plane moved %v m in 100 s at %v m/s", d, tgt.SpeedMS)
	}
	// Some planes appear late (the paper's ~80% Low-Res ceiling).
	late := 0
	for _, tgt := range s.Targets {
		if tgt.AppearS > 0 {
			late++
		}
	}
	if frac := float64(late) / float64(len(s.Targets)); frac < 0.5 || frac > 0.8 {
		t.Errorf("late-appearing fraction = %v, want ~0.67", frac)
	}
}

func TestActiveAt(t *testing.T) {
	tgt := Target{AppearS: 100, VanishS: 200}
	if tgt.ActiveAt(50) || !tgt.ActiveAt(150) || tgt.ActiveAt(250) {
		t.Error("ActiveAt window wrong")
	}
	forever := Target{}
	if !forever.ActiveAt(0) || !forever.ActiveAt(1e9) {
		t.Error("default target should always be active")
	}
}

func TestLakesScenarios(t *testing.T) {
	small := Lakes(1, "lakes-5k", 5000, 1, 10)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range small.Targets {
		if tgt.AreaKM2 < 1 || tgt.AreaKM2 > 10 {
			t.Fatalf("lake area %v out of [1,10]", tgt.AreaKM2)
		}
	}
	// Power-law: small lakes dominate.
	smallCount := 0
	for _, tgt := range small.Targets {
		if tgt.AreaKM2 < 3 {
			smallCount++
		}
	}
	if frac := float64(smallCount) / float64(len(small.Targets)); frac < 0.5 {
		t.Errorf("small-lake fraction = %v, want > 0.5 (power law)", frac)
	}
}

func TestLakeScenarioCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full lake inventories are large")
	}
	if n := len(LakesSmallScenario(1).Targets); n != LakeCountSmall {
		t.Errorf("small scenario = %d", n)
	}
	if n := len(LakesLargeScenario(1).Targets); n != LakeCountLarge {
		t.Errorf("large scenario = %d", n)
	}
}

// TestDatasetGolden pins the generated worlds across code versions: an
// FNV-64 over every field of every target of each standard dataset at
// seed 1. Every simulator result and every checkpoint's scenario digest
// depends on these targets, and TestDeterminism only compares two
// generations within one build. lakes-1.4m runs outside -short.
func TestDatasetGolden(t *testing.T) {
	if n := reflect.TypeOf(Target{}).NumField(); n != 8 {
		t.Fatalf("Target has %d fields: hash every one", n)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"ships", 0xfe188c1f80626d28},
		{"airplanes", 0x9895d7ccb408a3d4},
		{"oiltanks", 0x332918c2e419320b},
		{"lakes-166k", 0x4a709925cf333534},
		{"lakes-1.4m", 0x05a543eaf16caab9},
	} {
		if c.name == "lakes-1.4m" && testing.Short() {
			continue
		}
		s, err := ByName(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, tg := range s.Targets {
			put(uint64(tg.ID))
			for _, v := range []float64{tg.Pos.Lat, tg.Pos.Lon, tg.SpeedMS, tg.HeadingDeg, tg.Value, tg.AreaKM2, tg.AppearS, tg.VanishS} {
				put(math.Float64bits(v))
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d targets hash to %#x, want %#x", c.name, len(s.Targets), got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Ships(7)
	b := Ships(7)
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs between same-seed generations", i)
		}
	}
	c := Ships(8)
	same := true
	for i := range a.Targets {
		if a.Targets[i].Pos != c.Targets[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical worlds")
	}
}

func TestClusteringIsRealistic(t *testing.T) {
	// Targets must be clustered, not uniform: the densest 5% of 5-degree
	// cells should hold a large share of all targets.
	s := Ships(3)
	counts := make(map[[2]int]int)
	for _, tgt := range s.Targets {
		counts[[2]int{int(tgt.Pos.Lat / 5), int(tgt.Pos.Lon / 5)}]++
	}
	var all []int
	total := 0
	for _, c := range counts {
		all = append(all, c)
		total += c
	}
	// Top-5%-of-cells share.
	top := 0
	threshold := percentileInt(all, 0.95)
	for _, c := range all {
		if c >= threshold {
			top += c
		}
	}
	if frac := float64(top) / float64(total); frac < 0.3 {
		t.Errorf("top-cell share = %v, want clustered (> 0.3)", frac)
	}
}

func percentileInt(xs []int, p float64) int {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ships", "oiltanks"} {
		s, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Errorf("name = %q, want %q", s.Name, name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name accepted")
	}
	if len(StandardNames()) != 4 {
		t.Error("want 4 standard datasets")
	}
}

// TestStandardNamesRoundTrip: every standard dataset, and oiltanks, is
// named by the name ByName takes, so a Result, a CLI line or a server
// response names a dataset Generator accepts. lakes-1.4m once named
// itself lakes-1410k. lakes-1.4m runs outside -short.
func TestStandardNamesRoundTrip(t *testing.T) {
	for _, name := range append(StandardNames(), "oiltanks") {
		if name == "lakes-1.4m" && testing.Short() {
			continue
		}
		s, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Errorf("ByName(%q) returns a set named %q", name, s.Name)
		}
	}
}

// TestGeneratorAllocations: a generator allocates its targets once, with
// no intermediate copy of their positions. One generation may allocate
// the target slice plus 64 KiB for the generator's source, regions and
// set. lakes-1.4m runs outside -short.
func TestGeneratorAllocations(t *testing.T) {
	for _, name := range []string{"ships", "airplanes", "oiltanks", "lakes-166k", "lakes-1.4m"} {
		if name == "lakes-1.4m" && testing.Short() {
			continue
		}
		gen, err := Generator(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := gen(1)
		runtime.ReadMemStats(&after)
		limit := uint64(len(s.Targets))*uint64(unsafe.Sizeof(Target{})) + 64<<10
		got := after.TotalAlloc - before.TotalAlloc
		if got > limit {
			t.Errorf("%s: generating %d targets allocated %d bytes, limit %d", name, len(s.Targets), got, limit)
		}
		t.Logf("%s: %d targets, %d bytes", name, len(s.Targets), got)
	}
}

func TestOilTanks(t *testing.T) {
	s := OilTanks(1)
	if len(s.Targets) != OilTankFarmCount {
		t.Errorf("oil tanks = %d", len(s.Targets))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexFindsNearbyTargets(t *testing.T) {
	s := Ships(5)
	ix := NewIndex(s, 2, 0)
	// For each of a few targets, a query at its position must return it.
	for _, ti := range []int{0, 100, 5000, 19000} {
		tgt := s.Targets[ti]
		got := ix.Near(tgt.Pos, 50e3, 0)
		found := false
		for _, gi := range got {
			if int(gi) == ti {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("target %d not found near its own position", ti)
		}
	}
}

func TestIndexSupersetProperty(t *testing.T) {
	// Every target within the radius must be in the candidate list.
	s := Ships(6)
	ix := NewIndex(s, 2, 0)
	q := geo.LatLon{Lat: 35, Lon: 128} // dense region
	radius := 100e3
	cand := make(map[int32]bool)
	for _, gi := range ix.Near(q, radius, 0) {
		cand[gi] = true
	}
	for i, tgt := range s.Targets {
		if geo.GreatCircleDistance(q, tgt.Pos) <= radius {
			if !cand[int32(i)] {
				t.Fatalf("target %d within radius but not in candidates", i)
			}
		}
	}
	if len(cand) == 0 {
		t.Error("no candidates in a dense region")
	}
}

func TestIndexPolarQuery(t *testing.T) {
	s := &Set{Name: "polar"}
	s.Targets = append(s.Targets, Target{ID: 0, Pos: geo.LatLon{Lat: 89.5, Lon: 10}, Value: 1})
	s.Targets = append(s.Targets, Target{ID: 1, Pos: geo.LatLon{Lat: 89.5, Lon: -170}, Value: 1})
	ix := NewIndex(s, 2, 0)
	got := ix.Near(geo.LatLon{Lat: 89.9, Lon: 100}, 100e3, 0)
	if len(got) != 2 {
		t.Errorf("polar query found %d of 2", len(got))
	}
}

func TestTimedIndexMovingTargets(t *testing.T) {
	s := Airplanes(2)
	tx := NewTimedIndex(s, 2, 600)
	// A plane queried at a later time should still be found near its
	// propagated position.
	tgt := s.Targets[42]
	ts := 3000.0
	pos := tgt.PosAt(ts)
	got := tx.Near(pos, 100e3, ts)
	found := false
	for _, gi := range got {
		if int(gi) == 42 {
			found = true
			break
		}
	}
	if !found {
		t.Error("moving target not found at propagated position")
	}
	if tx.Set() != s {
		t.Error("Set accessor wrong")
	}
}

func TestTimedIndexStaticUsesOneBucket(t *testing.T) {
	s := Ships(9)
	tx := NewTimedIndex(s, 2, 600)
	_ = tx.Near(geo.LatLon{Lat: 0, Lon: 0}, 50e3, 0)
	_ = tx.Near(geo.LatLon{Lat: 0, Lon: 0}, 50e3, 80000)
	if tx.static == nil || len(tx.epochs) != 0 {
		t.Errorf("static set built %d epochs, want only its full-set index", len(tx.epochs))
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	s := &Set{Name: "bad", Targets: []Target{{Pos: geo.LatLon{Lat: 95}, Value: 1}}}
	if err := s.Validate(); err == nil {
		t.Error("invalid position accepted")
	}
	s = &Set{Name: "bad", Targets: []Target{{Pos: geo.LatLon{}, Value: 0}}}
	if err := s.Validate(); err == nil {
		t.Error("zero value accepted")
	}
	s = &Set{Name: "bad", Targets: []Target{{Pos: geo.LatLon{}, Value: 1, SpeedMS: -1}}}
	if err := s.Validate(); err == nil {
		t.Error("negative speed accepted")
	}
	for _, tgt := range []Target{
		{Value: math.NaN()},
		{Value: 1, SpeedMS: math.NaN()},
		{Value: 1, SpeedMS: math.Inf(1)},
		{Value: 1, SpeedMS: 1e306},
		{Value: 1, SpeedMS: MaxSpeedMS + 1},
		{Value: 1, SpeedMS: 250, HeadingDeg: math.NaN()},
		{Value: 1, SpeedMS: 250, HeadingDeg: math.Inf(-1)},
	} {
		s := &Set{Name: "bad", Moving: true, Targets: []Target{tgt}}
		if err := s.Validate(); err == nil {
			t.Errorf("target %+v accepted", tgt)
		}
	}
	s = &Set{Name: "fast", Moving: true, Targets: []Target{{Value: 1, SpeedMS: MaxSpeedMS, HeadingDeg: -720}}}
	if err := s.Validate(); err != nil {
		t.Errorf("speed at the bound rejected: %v", err)
	}
}

func BenchmarkIndexQuery(b *testing.B) {
	s := Ships(1)
	ix := NewIndex(s, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Near(geo.LatLon{Lat: 35, Lon: 128}, 71e3, 0)
	}
}
