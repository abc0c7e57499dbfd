package core

import "math/rand"

// frameSource is the shard units' detector RNG. It reproduces math/rand's
// default source (rand.NewSource) draw for draw, but its Seed is O(1):
// the stock Seed regenerates the whole 607-word register (1,841 Lehmer
// steps), while a simulated frame draws a handful of numbers. So Seed
// only stores the reduced seed, and each draw generates the register
// words it reads, the first time it reads them.
//
// The register. math/rand's source is an additive lagged-Fibonacci
// generator over 607 words, tap 273. Seed sets word i to
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[k] = seed·48271^k mod (2³¹−1) is step k of the Lehmer generator
// started at the reduced seed, and cooked is a fixed table. Counting
// draws n from 0 after a seed, draw n adds tap word 606−n to feed word
// 333−n (indices mod 607), stores the sum in the feed word and returns
// it. Feed words run downwards from 333, so before draw 334 a feed word
// has never been written; tap words below 334 were written by draw
// n−273. Each of the first 334 draws therefore generates its feed word,
// and its tap word while n < 273; after 334 draws every word is live
// and a draw is the stock one.
type frameSource struct {
	seed      uint64 // reduced seed, in [1, 2³¹−2]
	n         int    // draws since Seed, counted up to rngLive
	tap, feed int
	vec       [rngLen]int64
	// generated counts the words generated since Seed; tests read it to
	// show that a draw generates only the words it reads.
	generated int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngLive  = rngLen - rngTap // draws after which every word is generated
	lehmerA  = 48271
	int32max = 1<<31 - 1
)

// lehmerPow[k] is 48271^k mod (2³¹−1), for every step a seed reads.
var lehmerPow = lehmerPowers()

// rngCooked is math/rand's cooked table, recovered from the stock source.
var rngCooked = cookedWords()

func lehmerPowers() *[3*rngLen + 21]uint64 {
	p := new([3*rngLen + 21]uint64)
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * lehmerA % int32max
	}
	return p
}

// cookedWords recovers the cooked table from the first 607 draws o of a
// stock rand.NewSource(1), whose initial register is v:
//
//	o[n] = v[333−n] + v[606−n]  for n < 273,
//	o[n] = v[333−n] + o[n−273]  for 273 ≤ n ≤ 333,
//	o[n] = v[940−n] + o[n−273]  for 334 ≤ n < 607.
//
// The last two lines give v[0..60] and v[334..606], and then the first
// gives v[61..333]. Each cooked word is v[i] without seed 1's Lehmer
// part. The source's differential tests against the stock one are the
// oracle for this algebra.
func cookedWords() *[rngLen]int64 {
	stock := rand.NewSource(1).(rand.Source64)
	var o, v [rngLen]int64
	for n := range o {
		o[n] = int64(stock.Uint64())
	}
	for n := rngTap; n < rngLen; n++ {
		feed := rngLive - 1 - n
		if feed < 0 {
			feed += rngLen
		}
		v[feed] = o[n] - o[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		v[rngLive-1-n] = o[n] - v[rngLen-1-n]
	}
	c := new([rngLen]int64)
	for i := range c {
		c[i] = v[i] ^ lehmerWord(1, i)
	}
	return c
}

// lehmerWord is word i's Lehmer part for a reduced seed: three steps,
// each one multiply-mod by a power from the table.
func lehmerWord(seed uint64, i int) int64 {
	k := 21 + 3*i
	return int64(seed*lehmerPow[k]%int32max)<<40 ^ int64(seed*lehmerPow[k+1]%int32max)<<20 ^ int64(seed*lehmerPow[k+2]%int32max)
}

// newFrameSource returns a source seeded with seed, as rand.NewSource.
func newFrameSource(seed int64) *frameSource {
	s := new(frameSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stock source's state for seed, reducing
// it as the stock Seed does: mod 2³¹−1, negatives wrapped, 0 → 89482311.
func (s *frameSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.n = 0
	s.tap = 0
	s.feed = rngLive
	s.generated = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *frameSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit integer, the stock source's next.
func (s *frameSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < rngLive {
		s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ rngCooked[s.feed]
		s.generated++
		if s.n < rngTap {
			s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ rngCooked[s.tap]
			s.generated++
		}
		s.n++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
