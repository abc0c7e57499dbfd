package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// targetBits is a set of target indices, one bit per target: bit i%64 of
// word i/64 is target i. A job's captured and seen flags are two of
// them, so the ordered merge ORs words and Result counts them with
// OnesCount64 instead of walking a flag per target. Only the methods
// below index the words.
type targetBits []uint64

// newTargetBits returns an empty set over n targets.
func newTargetBits(n int) targetBits { return make(targetBits, (n+63)/64) }

// set adds target i.
func (b targetBits) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// or adds every target of src, a set over the same targets.
func (b targetBits) or(src targetBits) {
	for i, w := range src {
		b[i] |= w
	}
}

// count returns the number of targets in the set.
func (b targetBits) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// encode writes the set over n targets as a snapshot bitmap: the count n,
// then (n+7)/8 bytes in which bit k of byte j is target 8j+k -- the
// words' little-endian bytes, cut after the last target's byte.
func (b targetBits) encode(bw *binWriter, n int) {
	bw.u32(uint32(n))
	buf := make([]byte, 8*len(b))
	for i, w := range b {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	bw.raw(buf[:(n+7)/8])
}

// decode reads a bitmap written by encode into the set over n targets.
// The stored count must equal n (the target count is part of the
// scenario digest, so a mismatch means corruption) before any byte is
// read, so nothing is sized by the snapshot's own length field; bits
// past n in the last byte are ignored.
func (b targetBits) decode(br *binReader, n int) {
	m := int(br.u32())
	if br.err != nil {
		return
	}
	if m != n {
		br.err = fmt.Errorf("sim: snapshot bitmap length %d, want %d", m, n)
		return
	}
	buf := make([]byte, 8*len(b))
	br.raw(buf[:(n+7)/8])
	if br.err != nil {
		return
	}
	for i := range b {
		b[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	if r := n % 64; r != 0 {
		b[len(b)-1] &= 1<<r - 1
	}
}
