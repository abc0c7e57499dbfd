// Package dataset provides deterministic synthetic equivalents of the four
// evaluation workloads in §5.2. The originals (Global Fishing Watch ship
// positions, Spire aircraft tracks, the HydroLAKES inventory, and the
// Kaggle oil-storage-tank imagery) cannot be redistributed, so each
// generator reproduces the statistics the experiments depend on: target
// count, spatial clustering (targets concentrate along shipping lanes,
// flight corridors and lake districts, which is what creates the dense
// frames that stress the scheduler), and motion (aircraft move at airliner
// speeds; ships are evaluated as a snapshot, as in the paper).
//
// Every generator takes a seed; the same seed always produces the same
// world, making every experiment reproducible bit-for-bit.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"eagleeye/internal/geo"
)

// Target is one ground target. Moving targets expose their trajectory
// through PosAt; static targets return Pos for every time.
type Target struct {
	ID         int
	Pos        geo.LatLon // position at t = 0
	SpeedMS    float64    // ground speed (0 for static targets)
	HeadingDeg float64    // course over ground
	Value      float64    // application priority in (0, 1]
	AreaKM2    float64    // footprint area (lakes); 0 for point targets
	// AppearS/VanishS bound the interval the target exists (aircraft enter
	// and leave the air picture); Vanish 0 means "forever".
	AppearS, VanishS float64
}

// PosAt returns the target's position at elapsed time t seconds.
func (t Target) PosAt(ts float64) geo.LatLon {
	if t.SpeedMS == 0 || ts == 0 {
		return t.Pos
	}
	return geo.Destination(t.Pos, t.HeadingDeg, t.SpeedMS*ts)
}

// ActiveAt reports whether the target exists at elapsed time t.
func (t Target) ActiveAt(ts float64) bool {
	if ts < t.AppearS {
		return false
	}
	return t.VanishS == 0 || ts <= t.VanishS
}

// Set is a named collection of targets.
type Set struct {
	Name    string
	Targets []Target
	Moving  bool
}

// MaxSpeedMS bounds a target's ground speed: over three times the
// fastest generated airliner (300 m/s). A moving-set index pads every
// query by its fastest target's reach, so one runaway speed would widen
// every query of the set to the whole globe.
const MaxSpeedMS = 1000

// Validate checks every target's coordinates and parameters.
func (s *Set) Validate() error {
	for i, t := range s.Targets {
		if !t.Pos.Valid() {
			return fmt.Errorf("dataset %s: target %d invalid position %v", s.Name, i, t.Pos)
		}
		if !(t.Value > 0 && t.Value <= 1) {
			return fmt.Errorf("dataset %s: target %d value %v out of (0,1]", s.Name, i, t.Value)
		}
		if !(t.SpeedMS >= 0 && t.SpeedMS <= MaxSpeedMS) {
			return fmt.Errorf("dataset %s: target %d speed %v m/s out of [0,%d]", s.Name, i, t.SpeedMS, MaxSpeedMS)
		}
		if math.IsNaN(t.HeadingDeg) || math.IsInf(t.HeadingDeg, 0) {
			return fmt.Errorf("dataset %s: target %d heading %v not finite", s.Name, i, t.HeadingDeg)
		}
	}
	return nil
}

// region is a geographic cluster seed: targets scatter around these with
// the given spread (degrees) and relative weight.
type region struct {
	lat, lon  float64
	spreadDeg float64
	weight    float64
}

// sampleClustered fills the positions of targets, in order, from a
// mixture of the regions plus a uniform background fraction. It writes
// them in place, so a generator allocates its targets once.
func sampleClustered(rng *rand.Rand, targets []Target, regions []region, backgroundFrac float64, maxAbsLat float64) {
	totalW := 0.0
	// lonDiv[k] widens region k's longitude spread by 1/cos(latitude),
	// floored at 0.2 so polar regions stay bounded.
	lonDiv := make([]float64, len(regions))
	for k, r := range regions {
		totalW += r.weight
		lonDiv[k] = math.Max(0.2, math.Cos(geo.Deg2Rad(r.lat)))
	}
	for n := 0; n < len(targets); {
		if rng.Float64() < backgroundFrac {
			// Uniform-over-sphere background, clamped in latitude.
			lat := geo.Rad2Deg(math.Asin(2*rng.Float64() - 1))
			if math.Abs(lat) > maxAbsLat {
				continue
			}
			targets[n].Pos = geo.LatLon{Lat: lat, Lon: rng.Float64()*360 - 180}.Normalize()
			n++
			continue
		}
		// Pick a region by weight.
		w := rng.Float64() * totalW
		k := len(regions) - 1
		for i, r := range regions {
			if w < r.weight {
				k = i
				break
			}
			w -= r.weight
		}
		reg := regions[k]
		lat := reg.lat + rng.NormFloat64()*reg.spreadDeg
		lon := reg.lon + rng.NormFloat64()*reg.spreadDeg/lonDiv[k]
		if math.Abs(lat) > maxAbsLat {
			continue
		}
		targets[n].Pos = geo.LatLon{Lat: lat, Lon: lon}.Normalize()
		n++
	}
}

// value draws a detection-confidence-like priority in (0.5, 1].
func value(rng *rand.Rand) float64 { return 0.5 + 0.5*rng.Float64() }

// ShipCount matches the Global Fishing Watch snapshot used in the paper.
const ShipCount = 19119

// Ships generates the ship-detection workload: ShipCount static vessels
// clustered along major shipping lanes and fishing grounds. The paper
// evaluates ships as a snapshot (the source data has no motion), so
// SpeedMS is zero.
func Ships(seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	lanes := []region{
		{lat: 35, lon: 128, spreadDeg: 4, weight: 3},    // East China Sea / Korea
		{lat: 22, lon: 114, spreadDeg: 3, weight: 3},    // South China Sea
		{lat: 1.3, lon: 104, spreadDeg: 2.5, weight: 3}, // Malacca / Singapore
		{lat: 36, lon: 14, spreadDeg: 4, weight: 2},     // Mediterranean
		{lat: 51, lon: 2, spreadDeg: 2.5, weight: 2},    // North Sea / Channel
		{lat: 29, lon: 49, spreadDeg: 2, weight: 1.5},   // Persian Gulf
		{lat: 30, lon: -90, spreadDeg: 3, weight: 1.5},  // Gulf of Mexico
		{lat: 34, lon: -120, spreadDeg: 3, weight: 1},   // US West Coast
		{lat: -34, lon: 18, spreadDeg: 3, weight: 1},    // Cape of Good Hope
		{lat: -5, lon: -35, spreadDeg: 4, weight: 1},    // Brazilian coast
		{lat: 57, lon: -3, spreadDeg: 3, weight: 1},     // North Atlantic
		{lat: 12, lon: 45, spreadDeg: 2, weight: 1},     // Gulf of Aden
	}
	s := &Set{Name: "ships", Targets: make([]Target, ShipCount)}
	sampleClustered(rng, s.Targets, lanes, 0.15, 70)
	for i := range s.Targets {
		t := &s.Targets[i]
		t.ID, t.Value = i, value(rng)
	}
	return s
}

// AirplaneCount matches the Spire 24-hour air picture used in the paper.
const AirplaneCount = 55196

// Airplanes generates the airplane-tracking workload: AirplaneCount
// aircraft on great-circle courses at airliner speeds, clustered around
// the busiest corridors. Flights appear and vanish through the day (the
// paper notes some targets only appear late in the simulation, bounding
// Low-Res-Only coverage at ~80%).
func Airplanes(seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	corridors := []region{
		{lat: 40, lon: -95, spreadDeg: 8, weight: 3},  // North America
		{lat: 48, lon: 8, spreadDeg: 6, weight: 3},    // Europe
		{lat: 32, lon: 110, spreadDeg: 8, weight: 3},  // East Asia
		{lat: 45, lon: -40, spreadDeg: 6, weight: 2},  // North Atlantic track
		{lat: 25, lon: 55, spreadDeg: 5, weight: 1.5}, // Middle East hub
		{lat: 20, lon: 78, spreadDeg: 5, weight: 1},   // India
		{lat: -25, lon: 135, spreadDeg: 6, weight: 1}, // Australia
		{lat: -15, lon: -55, spreadDeg: 6, weight: 1}, // South America
	}
	s := &Set{Name: "airplanes", Moving: true, Targets: make([]Target, AirplaneCount)}
	sampleClustered(rng, s.Targets, corridors, 0.1, 72)
	const day = 86400.0
	for i := range s.Targets {
		t := &s.Targets[i]
		t.ID = i
		// Two thirds of flights are airborne part of the day only.
		if rng.Float64() < 0.67 {
			t.AppearS = rng.Float64() * day * 0.8
			t.VanishS = t.AppearS + 1800 + rng.Float64()*6*3600 // 0.5-6.5 h legs
			if t.VanishS > day {
				t.VanishS = day
			}
		}
		t.SpeedMS = 180 + rng.Float64()*120 // 180-300 m/s ground speed
		t.HeadingDeg = rng.Float64() * 360
		t.Value = value(rng)
	}
	return s
}

// Lake counts for the two scenarios of §5.2.
const (
	LakeCountSmall = 166588  // lakes of 1-10 km^2
	LakeCountLarge = 1410999 // lakes of 0.1-10 km^2
)

// Lakes generates a lake-monitoring workload named name with count lakes
// of areas in [minKM2, maxKM2], clustered in the world's lake districts
// (the Canadian shield, Scandinavia and Siberia dominate real lake
// inventories).
func Lakes(seed int64, name string, count int, minKM2, maxKM2 float64) *Set {
	rng := rand.New(rand.NewSource(seed))
	districts := []region{
		{lat: 58, lon: -95, spreadDeg: 9, weight: 4},   // Canadian shield
		{lat: 62, lon: 25, spreadDeg: 6, weight: 2.5},  // Fennoscandia
		{lat: 62, lon: 75, spreadDeg: 10, weight: 2.5}, // West Siberian plain
		{lat: 66, lon: 120, spreadDeg: 9, weight: 2},   // East Siberia
		{lat: 47, lon: -90, spreadDeg: 5, weight: 1.5}, // Great Lakes region
		{lat: 54, lon: 28, spreadDeg: 5, weight: 1},    // Baltic lakelands
		{lat: -2, lon: 30, spreadDeg: 4, weight: 0.7},  // African rift
		{lat: 30, lon: 90, spreadDeg: 5, weight: 0.7},  // Tibetan plateau
		{lat: -40, lon: -72, spreadDeg: 4, weight: 0.5},
	}
	s := &Set{Name: name, Targets: make([]Target, count)}
	sampleClustered(rng, s.Targets, districts, 0.08, 72)
	// Lake areas follow a power law (many small, few large).
	alpha := 1.9
	for i := range s.Targets {
		u := rng.Float64()
		area := minKM2 * math.Pow(math.Pow(maxKM2/minKM2, 1-alpha)*u+(1-u), 1/(1-alpha))
		if area < minKM2 {
			area = minKM2
		}
		if area > maxKM2 {
			area = maxKM2
		}
		t := &s.Targets[i]
		t.ID, t.Value, t.AreaKM2 = i, value(rng), area
	}
	return s
}

// LakesSmallScenario returns the 166,588-lake scenario (1-10 km^2).
func LakesSmallScenario(seed int64) *Set { return Lakes(seed, "lakes-166k", LakeCountSmall, 1, 10) }

// LakesLargeScenario returns the 1,410,999-lake scenario (0.1-10 km^2).
func LakesLargeScenario(seed int64) *Set {
	return Lakes(seed, "lakes-1.4m", LakeCountLarge, 0.1, 10)
}

// OilTankFarmCount approximates the tank-farm sites represented in the
// Kaggle imagery dataset (10,000 images around industrial clusters).
const OilTankFarmCount = 1200

// OilTanks generates oil-storage tank farms near refining hubs. The paper
// uses the tank dataset only for ML accuracy (no geographic schedule
// evaluation), but the generator provides positions so the full pipeline
// can exercise the use case end to end.
func OilTanks(seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	hubs := []region{
		{lat: 29.7, lon: -95.0, spreadDeg: 1.5, weight: 3}, // US Gulf Coast
		{lat: 26.5, lon: 50.1, spreadDeg: 1.5, weight: 2},  // Persian Gulf
		{lat: 51.9, lon: 4.4, spreadDeg: 1, weight: 1.5},   // Rotterdam
		{lat: 1.3, lon: 103.7, spreadDeg: 1, weight: 1.5},  // Singapore
		{lat: 35.5, lon: 139.8, spreadDeg: 1, weight: 1},   // Tokyo Bay
		{lat: 23, lon: 113.5, spreadDeg: 1.5, weight: 1},   // Pearl River
	}
	s := &Set{Name: "oiltanks", Targets: make([]Target, OilTankFarmCount)}
	sampleClustered(rng, s.Targets, hubs, 0.05, 60)
	for i := range s.Targets {
		t := &s.Targets[i]
		t.ID, t.Value = i, value(rng)
	}
	return s
}

// ByName returns the named standard dataset ("ships", "airplanes",
// "lakes-166k", "lakes-1.4m", "oiltanks").
func ByName(name string, seed int64) (*Set, error) {
	gen, err := Generator(name)
	if err != nil {
		return nil, err
	}
	return gen(seed), nil
}

// Generator returns the generator of the named standard dataset, so that
// a name can be checked without generating its targets.
func Generator(name string) (func(seed int64) *Set, error) {
	switch name {
	case "ships":
		return Ships, nil
	case "airplanes":
		return Airplanes, nil
	case "lakes-166k":
		return LakesSmallScenario, nil
	case "lakes-1.4m":
		return LakesLargeScenario, nil
	case "oiltanks":
		return OilTanks, nil
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// StandardNames lists the four schedulable evaluation datasets in the
// order the paper's figures use.
func StandardNames() []string {
	return []string{"ships", "airplanes", "lakes-166k", "lakes-1.4m"}
}

// normalizePos wraps a raw lat/lon pair into a valid coordinate.
func normalizePos(lat, lon float64) geo.LatLon {
	return geo.LatLon{Lat: lat, Lon: lon}.Normalize()
}
