// Package bitset provides a fixed-size, single-owner bit vector.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-size bit vector for single-goroutine use.
type Set struct {
	words []uint64
	n     uint64
}

// New returns a Set holding n bits, all zero.
func New(n uint64) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the set.
func (s *Set) Len() uint64 { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i uint64) {
	s.check(i)
	s.words[i>>6] |= 1 << (i & 63)
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i uint64) {
	s.check(i)
	s.words[i>>6] &^= 1 << (i & 63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i uint64) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() uint64 {
	var c int
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// SizeBytes returns the heap footprint of the bit storage in bytes.
func (s *Set) SizeBytes() uint64 { return uint64(len(s.words)) * 8 }

func (s *Set) check(i uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}
