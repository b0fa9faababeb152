// Package bloom implements the space-efficient probabilistic set membership
// structure used as the second level of the read signature (§IV-D2, Fig. 3a).
//
// In the paper the bloom filter records, per signature slot, the set of
// threads that have read the corresponding memory location. Its bit-vector
// size m depends on the number of threads t in the target program, and the
// number of hash functions k is derived automatically from the false-positive
// rate requested by the user, so that the FP rate of the *filter itself*
// never exceeds the configured threshold (the overall signature FP rate is
// instead dominated by first-level slot collisions, measured in §V-A3).
//
// A filter is not an object here but a record: Layout.Words() consecutive
// uint64 words that the caller owns (internal/sig keeps every slot's record
// in one arena). The zero record is the empty filter, and clearing a record
// resets it. Records have a single owner; nothing here is safe for
// concurrent use.
package bloom

import (
	"math"
	"math/bits"

	"commprof/internal/murmur"
)

// Params describes a bloom filter geometry derived from a capacity and a
// target false-positive rate.
type Params struct {
	Bits   uint64 // m: bit-vector length
	Hashes int    // k: number of probe positions per element
}

// Derive computes filter geometry for storing up to capacity elements with
// the given false-positive rate, using the standard optima
//
//	m = -n·ln(p) / ln²(2)        (Eq. 2's per-slot term)
//	k = (m/n)·ln(2)
//
// capacity is clamped to at least 1 and fpRate to (0, 0.5].
func Derive(capacity uint64, fpRate float64) Params {
	if capacity == 0 {
		capacity = 1
	}
	if fpRate <= 0 {
		fpRate = 1e-9
	}
	if fpRate > 0.5 {
		fpRate = 0.5
	}
	ln2sq := math.Ln2 * math.Ln2
	m := uint64(math.Ceil(-float64(capacity) * math.Log(fpRate) / ln2sq))
	if m < 8 {
		m = 8
	}
	k := int(math.Round(float64(m) / float64(capacity) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return Params{Bits: m, Hashes: k}
}

// BitsPerFilter returns the paper's Eq. 2 per-slot bloom-filter size in
// *bits* for t threads and the given false-positive rate:
//
//	-t·ln(FPRate) / ln²(2)
func BitsPerFilter(threads int, fpRate float64) float64 {
	return -float64(threads) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
}

// Layout is a geometry prepared for probing filter records.
type Layout struct {
	Params
	words int
	// recip is floor((2^64-1)/m), the Barrett reciprocal that turns each
	// probe's 64-bit modulus into a multiply and at most one subtraction.
	recip uint64
}

// NewLayout prepares p for probing records. p.Bits must be at least 2.
func NewLayout(p Params) Layout {
	return Layout{Params: p, words: int((p.Bits + 63) / 64), recip: ^uint64(0) / p.Bits}
}

// Words returns the record length in 64-bit words.
func (l Layout) Words() int { return l.words }

// mod returns x % m exactly. recip ≥ (2^64−m)/m, so x·recip/2^64 >
// x/m − 1: the estimate q = ⌊x·recip/2^64⌋ is ⌊x/m⌋ or one less, and one
// conditional subtraction finishes.
func (l *Layout) mod(x uint64) uint64 {
	q, _ := bits.Mul64(x, l.recip)
	r := x - q*l.Bits
	if r >= l.Bits {
		r -= l.Bits
	}
	return r
}

// Add inserts element v into the filter record rec, whose hash family seed
// selects, and reports whether every probed bit was already set (v may have
// been present). The k probe positions are Kirsch–Mitzenmacher double
// hashing, g_i = (h1 + i·h2) mod m over MurmurHash3's two halves.
func (l *Layout) Add(rec []uint64, seed, v uint64) (present bool) {
	rec = rec[:l.words]
	g, step := murmur.HashAddrPair(v, seed)
	var missing uint64
	for i := 0; i < l.Hashes; i++ {
		pos := l.mod(g)
		bit := uint64(1) << (pos & 63)
		missing |= ^rec[pos>>6] & bit
		rec[pos>>6] |= bit
		g += step
	}
	return missing == 0
}

// PopCount returns the number of set bits in a record.
func PopCount(rec []uint64) uint64 {
	var c int
	for _, w := range rec {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// EstimateCardinality returns the standard bloom-filter cardinality estimate
// for a record with popcount x,
//
//	n* = -(m/k)·ln(1 - x/m).
func (l *Layout) EstimateCardinality(x uint64) float64 {
	m := float64(l.Bits)
	if float64(x) >= m {
		return math.Inf(1)
	}
	return -(m / float64(l.Hashes)) * math.Log(1-float64(x)/m)
}
