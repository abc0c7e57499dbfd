package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawCounts straddle every boundary of the lazy register: the first
// draw, the last draw that generates its tap word (272), the first that
// reads a written tap word (273), the last that generates a feed word
// (333), the first full register (334), and one pass round it (607).
var drawCounts = []int{0, 1, 7, 272, 273, 274, 333, 334, 335, 606, 607, 608, 2000}

// matchStock draws n numbers from s and a stock source seeded with seed,
// in lockstep, cycling through Uint64, Int63 and rand.Rand.Float64 (which
// reads Int63).
func matchStock(t *testing.T, s *frameSource, seed int64, n int) {
	t.Helper()
	stock := rand.NewSource(seed).(rand.Source64)
	rs, rf := rand.New(stock), rand.New(s)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if got, want := s.Uint64(), stock.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, stock %#x", seed, i, got, want)
			}
		case 1:
			if got, want := s.Int63(), stock.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %#x, stock %#x", seed, i, got, want)
			}
		case 2:
			if got, want := rf.Float64(), rs.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v, stock %v", seed, i, got, want)
			}
		}
	}
}

// TestFrameSourceDifferential runs the lazy source and math/rand's stock
// source in lockstep over edge and random seeds and every boundary draw
// count. One source serves every case, so a word left over from an
// earlier seed would show.
func TestFrameSourceDifferential(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64}
	for k := int64(1); k <= 3; k++ {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1, -k*int32max-1)
	}
	seeds = append(seeds, math.MaxInt64/int32max*int32max, math.MinInt64/int32max*int32max)
	rng := rand.New(rand.NewSource(20))
	for len(seeds) < 312 {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	s := newFrameSource(5)
	for _, seed := range seeds {
		for _, n := range drawCounts {
			s.Seed(seed)
			matchStock(t, s, seed, n)
		}
	}
}

// TestFrameSourceGeneratesOnlyWordsRead pins the lazy mechanism: a draw
// generates only the register words it reads, so a frame's few draws
// cost a few words, and the whole register is live after 334 draws.
func TestFrameSourceGeneratesOnlyWordsRead(t *testing.T) {
	s := newFrameSource(1)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	for _, c := range []struct{ draws, words int }{
		{0, 0}, {8, 16}, {272, 544}, {273, 546}, {333, 606}, {334, 607}, {2000, 607},
	} {
		s.Seed(777)
		for i := 0; i < c.draws; i++ {
			s.Uint64()
		}
		if s.generated != c.words {
			t.Errorf("after Seed and %d draws: %d words generated, want %d", c.draws, s.generated, c.words)
		}
	}
}

// FuzzFrameSourceDifferential draws reseedAt numbers from one seed,
// reseeds mid-stream, and then draws from the fuzzed seed, checking
// every draw of both runs against the stock source.
func FuzzFrameSourceDifferential(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(0))
	f.Add(int64(1), uint16(8), uint16(8))
	f.Add(int64(0), uint16(2000), uint16(300))
	f.Add(int64(-1), uint16(273), uint16(273))
	f.Add(int64(89482311), uint16(334), uint16(333))
	f.Add(int64(int32max), uint16(7), uint16(606))
	f.Add(int64(math.MinInt64), uint16(607), uint16(2000))
	f.Add(int64(math.MaxInt64), uint16(1), uint16(272))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		s := newFrameSource(^seed)
		matchStock(t, s, ^seed, int(reseedAt))
		s.Seed(seed)
		matchStock(t, s, seed, int(draws))
	})
}

// BenchmarkFrameSourceSeed is a frame's detector RNG use: Seed, then a
// few draws (the simulator's frames draw ~6) or a dense frame's
// thousands, on the lazy source and on the stock one.
func BenchmarkFrameSourceSeed(b *testing.B) {
	sources := []struct {
		name string
		src  rand.Source
	}{{"frame", newFrameSource(1)}, {"stock", rand.NewSource(1)}}
	for _, src := range sources {
		for _, draws := range []int{8, 4000} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				r := rand.New(src.src)
				var sum float64
				for i := 0; i < b.N; i++ {
					src.src.Seed(int64(i))
					for j := 0; j < draws; j++ {
						sum += r.Float64()
					}
				}
				benchSum = sum
			})
		}
	}
}

var benchSum float64
