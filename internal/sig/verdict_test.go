package sig

import (
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
)

// refSig is the asymmetric signature as it was before the arena layout: an
// atomic write array, and a read array of pointers to lazily CAS-installed
// bloom filters over atomic bitsets, each probing with a 64-bit % per hash.
// It shares only the geometry (bloom.Derive) and the hash (murmur) with
// Asymmetric and is the reference the wall below holds it to.
type refSig struct {
	opts      Options
	p         bloom.Params
	write     []atomic.Int32
	read      []atomic.Pointer[refFilter]
	allocated atomic.Uint64
}

type refFilter struct {
	words []atomic.Uint64
	seed  uint64
}

func newRefSig(opts Options) *refSig {
	if err := opts.setDefaults(); err != nil {
		panic(err)
	}
	return &refSig{
		opts:  opts,
		p:     bloom.Derive(uint64(opts.Threads), opts.FPRate),
		write: make([]atomic.Int32, opts.Slots),
		read:  make([]atomic.Pointer[refFilter], opts.Slots),
	}
}

func (s *refSig) slots(addr uint64) (rs, ws uint64) {
	n := s.opts.Slots
	if s.opts.Hash == HashFold {
		fold := func(seed uint64) uint64 { v := addr ^ seed; return v ^ (v >> 17) ^ (v << 9) }
		return fold(s.opts.SeedRead) % n, fold(s.opts.SeedWrite) % n
	}
	h1, h2 := murmur.HashAddrPair(addr, s.opts.SeedRead)
	return h1 % n, murmur.Mix64(h2^s.opts.SeedWrite) % n
}

func (s *refSig) filterAt(slot uint64) *refFilter {
	if f := s.read[slot].Load(); f != nil {
		return f
	}
	nf := &refFilter{words: make([]atomic.Uint64, (s.p.Bits+63)/64), seed: s.opts.SeedRead ^ slot}
	if s.read[slot].CompareAndSwap(nil, nf) {
		s.allocated.Add(1)
		return nf
	}
	return s.read[slot].Load()
}

// add is the old bloom.Filter.Add over bitset.Atomic.Set.
func (s *refSig) add(f *refFilter, v uint64) (present bool) {
	h1, h2 := murmur.HashAddrPair(v, f.seed)
	present = true
	for i := 0; i < s.p.Hashes; i++ {
		pos := (h1 + uint64(i)*h2) % s.p.Bits
		mask := uint64(1) << (pos & 63)
		w := &f.words[pos>>6]
		for {
			cur := w.Load()
			if cur&mask != 0 {
				break
			}
			if w.CompareAndSwap(cur, cur|mask) {
				present = false
				break
			}
		}
	}
	return present
}

func (s *refSig) ObserveRead(addr uint64, tid int32) (int32, bool) {
	rs, ws := s.slots(addr)
	writer := NoWriter
	if v := s.write[ws].Load(); v != 0 {
		writer = v - 1
	}
	return writer, !s.add(s.filterAt(rs), uint64(tid))
}

func (s *refSig) ObserveWrite(addr uint64, tid int32) {
	rs, ws := s.slots(addr)
	if f := s.read[rs].Load(); f != nil {
		for i := range f.words {
			f.words[i].Store(0)
		}
	}
	s.write[ws].Store(tid + 1)
}

func (s *refSig) FillRatio(sample int) float64 {
	n := len(s.read)
	stride := max(n/sample, 1)
	var sum float64
	seen := 0
	for slot := 0; slot < n && seen < sample; slot += stride {
		f := s.read[slot].Load()
		if f == nil {
			continue
		}
		var c int
		for i := range f.words {
			c += bits.OnesCount64(f.words[i].Load())
		}
		sum += float64(uint64(c)) / float64(s.p.Bits)
		seen++
	}
	if seen == 0 {
		return 0
	}
	return sum / float64(seen)
}

// TestVerdictIdentityWithPointerSignature is the wall for the arena layout:
// over a seeded stream of a million mixed reads and writes from 32 threads
// into 2^12 slots — small enough that slot collisions, filter saturation and
// write-triggered resets are constant — every (writer, firstRead) verdict,
// the allocated-filter count and the sampled fill ratio must equal the
// pointer-and-atomic reference's, op by op. Both hash kinds are covered, and
// a Reset midway checks that the arena restarts cleanly.
func TestVerdictIdentityWithPointerSignature(t *testing.T) {
	const (
		ops     = 1_000_000
		threads = 32
		slots   = 1 << 12
	)
	for _, hk := range []HashKind{HashMurmur, HashFold} {
		opts := Options{Slots: slots, Threads: threads, FPRate: 0.001, Hash: hk}
		got, err := NewAsymmetric(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := newRefSig(opts)
		rng := rand.New(rand.NewSource(20151))
		reads, firsts, writers := 0, 0, 0
		for i := 0; i < ops; i++ {
			if i == ops/2 {
				got.Reset()
				want = newRefSig(opts)
			}
			// A hot set of 512 words that collide heavily with each other and
			// a cold tail of 64K words that saturates the slots.
			addr := uint64(rng.Intn(512)) * 8
			if rng.Intn(4) == 0 {
				addr = 0x100000 + uint64(rng.Intn(1<<16))*8
			}
			tid := int32(rng.Intn(threads))
			if rng.Intn(10) < 3 {
				got.ObserveWrite(addr, tid)
				want.ObserveWrite(addr, tid)
				continue
			}
			gw, gf := got.ObserveRead(addr, tid)
			ww, wf := want.ObserveRead(addr, tid)
			if gw != ww || gf != wf {
				t.Fatalf("hash %d op %d: read(%#x, %d) = (%d, %v), reference (%d, %v)", hk, i, addr, tid, gw, gf, ww, wf)
			}
			reads++
			if gf {
				firsts++
			}
			if gw != NoWriter {
				writers++
			}
			if i%(1<<16) == 0 {
				if a, b := got.AllocatedFilters(), want.allocated.Load(); a != b {
					t.Fatalf("hash %d op %d: AllocatedFilters %d, reference %d", hk, i, a, b)
				}
			}
		}
		if a, b := got.AllocatedFilters(), want.allocated.Load(); a != b {
			t.Fatalf("hash %d: AllocatedFilters %d, reference %d", hk, a, b)
		}
		if a, b := got.FillRatio(64), want.FillRatio(64); a != b {
			t.Fatalf("hash %d: FillRatio(64) %v, reference %v", hk, a, b)
		}
		// The stream must exercise both verdicts and collisions, or the wall
		// proves nothing.
		if firsts == 0 || firsts == reads || writers == 0 || got.AllocatedFilters() < slots/2 {
			t.Fatalf("hash %d: degenerate stream: %d reads, %d first, %d with a writer, %d filters",
				hk, reads, firsts, writers, got.AllocatedFilters())
		}
	}
}
