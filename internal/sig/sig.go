// Package sig implements the paper's central data structure, the
// "Asymmetric Signature Memory" (§IV-D2, Fig. 3), plus a collision-free
// reference implementation used as the ground-truth baseline for measuring
// signature false-positive rates (§V-A3).
//
// A software signature gives an approximate representation of an unbounded
// set with a bounded amount of state. The asymmetry here is between the two
// access kinds:
//
//   - the READ signature is two-level: a fixed array of n slots addressed by
//     MurmurHash, each slot holding a lazily allocated bloom filter that
//     records the set of thread IDs which have read addresses hashing to the
//     slot (Fig. 3a);
//
//   - the WRITE signature is one-level: a fixed array of slots, each holding
//     only the ID of the last thread that wrote an address hashing to the
//     slot (Fig. 3b).
//
// Collisions (h(v1)==h(v2), v1!=v2) produce dependencies that do not exist —
// false positives — at a rate controlled by the slot count, which is the
// trade-off the paper quantifies. Total memory is fixed and given by Eq. 2.
//
// Unlike the paper's lock-free signature, every signature here has a single
// owner, so the layout is plain and pointer-free: an []int32 write array, a
// []uint32 filter index and a paged arena of filter records (DESIGN.md).
package sig

import (
	"fmt"
	"math"
	"sync/atomic"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
	"commprof/internal/obs"
)

// NoWriter is returned when an address misses the write signature.
const NoWriter int32 = -1

// Backend is the conflict store consulted by the RAW detector (Algorithm 1).
// A backend has a single owner: ObserveRead, ObserveWrite and Reset are
// called from one goroutine at a time (the serial analyser's driver, or one
// sharded-pipeline worker), in the temporal order of the accesses. Only
// FootprintBytes may be called from other goroutines while a run is in
// flight.
type Backend interface {
	// ObserveRead processes a read of addr by thread tid. It returns the
	// last recorded writer of addr (NoWriter on a write-signature miss) and
	// whether this is tid's first read of addr since the last write to it
	// (i.e. addr∉read-signature for tid before this call). The read is
	// recorded in the read signature as a side effect.
	ObserveRead(addr uint64, tid int32) (writer int32, firstRead bool)
	// ObserveWrite records tid as the last writer of addr and invalidates
	// the recorded reader set for addr.
	ObserveWrite(addr uint64, tid int32)
	// FootprintBytes reports the memory the backend actually holds.
	FootprintBytes() uint64
	// Reset clears all recorded state.
	Reset()
	// Name identifies the backend in reports.
	Name() string
}

// Options configures an asymmetric signature memory.
type Options struct {
	// Slots is the signature size n: the element count of both the
	// first-level read array and the write array. The paper evaluates
	// 1e6, 4e6, 1e7 and 1e8; 1e7 is its standard operating point.
	Slots uint64
	// Threads is t, the thread count of the target program; it sizes each
	// slot's bloom filter.
	Threads int
	// FPRate is the acceptable false-positive rate of the per-slot bloom
	// filters (the paper uses 0.001 throughout its evaluation).
	FPRate float64
	// SeedRead / SeedWrite select independent hash functions for the two
	// arrays; zero values get deterministic defaults.
	SeedRead, SeedWrite uint64
	// Hash selects the slot-addressing hash function. The default,
	// HashMurmur, is the paper's choice ("much lower time complexity while
	// having less collisions in comparison with other hash functions",
	// §IV-D2); HashFold is a deliberately weaker xor-fold kept for the
	// hash-quality ablation experiment.
	Hash HashKind
	// Probes, when non-nil, receives self-observability telemetry: filter
	// allocations as they happen, reader resets in batches at the publish
	// cadence (see Asymmetric.Publish).
	Probes *obs.SigProbes
}

// HashKind selects the signature's slot-addressing hash.
type HashKind int

const (
	// HashMurmur is MurmurHash3 (the paper's choice; default).
	HashMurmur HashKind = iota
	// HashFold is a weak xor-fold of the address halves, kept as the
	// ablation baseline: strided addresses collide in clusters.
	HashFold
)

// MaxSlots is the largest slot count the uint32 filter index can address:
// index 0 means "no filter", so filters are numbered 1..Slots.
const MaxSlots = 1<<32 - 1

// SlotsError reports a slot count outside [1, MaxSlots]. NewAsymmetric
// returns it before allocating anything.
type SlotsError struct{ Slots uint64 }

func (e *SlotsError) Error() string {
	return fmt.Sprintf("sig: Slots must be in [1, %d], got %d", uint64(MaxSlots), e.Slots)
}

func (o *Options) setDefaults() error {
	if o.Slots == 0 || o.Slots > MaxSlots {
		return &SlotsError{Slots: o.Slots}
	}
	if o.Threads <= 0 {
		return fmt.Errorf("sig: Threads must be positive, got %d", o.Threads)
	}
	if o.FPRate <= 0 || o.FPRate >= 1 {
		return fmt.Errorf("sig: FPRate must be in (0,1), got %v", o.FPRate)
	}
	if o.SeedRead == 0 {
		o.SeedRead = 0x9E3779B97F4A7C15
	}
	if o.SeedWrite == 0 {
		o.SeedWrite = 0xC2B2AE3D27D4EB4F
	}
	return nil
}

const (
	// The arena holds 2^pageShift records per page, so it grows without
	// copying and a record never moves.
	pageShift = 12
	pageMask  = 1<<pageShift - 1
	// Every publishEvery operations the owner publishes a fill ratio over
	// publishSample filters: well under a nanosecond per operation.
	publishEvery  = 1 << 16
	publishSample = 256
)

// Asymmetric is the paper's asymmetric signature memory. It has a single
// owner (see Backend); only AllocatedFilters, Occupancy, FootprintBytes and
// LiveFillRatio may be called from other goroutines during a run.
type Asymmetric struct {
	opts  Options
	bloom bloom.Layout
	words uint64 // record length in words

	// write signature: slot -> last writer tid + 1, so 0 means empty.
	write []int32
	// read signature level 1: slot -> filter index into the arena, 1-based,
	// so 0 means no filter yet.
	read []uint32
	// pages is the filter arena: record i (0-based) is the words-long run at
	// offset (i&pageMask)*words of pages[i>>pageShift].
	pages [][]uint64

	ops    uint64 // operations, for the publish cadence
	resets uint64 // reader resets not yet published to Probes

	// For live readers: allocated (the record count) changes only when a
	// filter is allocated; fill holds the bits of the published FillRatio.
	allocated atomic.Uint64
	fill      atomic.Uint64
}

// NewAsymmetric builds an asymmetric signature memory. It validates every
// option, including Slots against MaxSlots, before allocating.
func NewAsymmetric(opts Options) (*Asymmetric, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	l := bloom.NewLayout(bloom.Derive(uint64(opts.Threads), opts.FPRate))
	return &Asymmetric{
		opts:  opts,
		bloom: l,
		words: uint64(l.Words()),
		write: make([]int32, opts.Slots),
		read:  make([]uint32, opts.Slots),
	}, nil
}

// Name implements Backend.
func (s *Asymmetric) Name() string { return "asymmetric-signature" }

// Options returns the configuration the signature was built with.
func (s *Asymmetric) Options() Options { return s.opts }

// slots maps addr to its (read, write) slot pair from ONE 128-bit hash
// pass: the first MurmurHash3 half is the historical HashAddr(addr,
// SeedRead) read mapping, and the second, folded with SeedWrite through the
// fmix64 finalizer so the write mapping keeps independent-hash collision
// statistics, addresses the write array.
func (s *Asymmetric) slots(addr uint64) (rs, ws uint64) {
	if s.opts.Hash == HashFold {
		// Weak fold: mixes poorly, so regular access strides map to
		// clustered slots. Exists only to quantify what MurmurHash buys.
		return foldHash(addr, s.opts.SeedRead) % s.opts.Slots,
			foldHash(addr, s.opts.SeedWrite) % s.opts.Slots
	}
	h1, h2 := murmur.HashAddrPair(addr, s.opts.SeedRead)
	return h1 % s.opts.Slots, murmur.Mix64(h2^s.opts.SeedWrite) % s.opts.Slots
}

func foldHash(addr, seed uint64) uint64 {
	v := addr ^ seed
	return v ^ (v >> 17) ^ (v << 9)
}

// record returns the words of filter idx (1-based).
func (s *Asymmetric) record(idx uint32) []uint64 {
	i := uint64(idx - 1)
	off := (i & pageMask) * s.words
	return s.pages[i>>pageShift][off : off+s.words : off+s.words]
}

// filter returns the read slot's filter record, allocating it on first use:
// a bump of the arena, plus a new page every 2^pageShift records. Each
// slot's filter hashes with its own seed, SeedRead^slot.
func (s *Asymmetric) filter(slot uint64) []uint64 {
	if idx := s.read[slot]; idx != 0 {
		return s.record(idx)
	}
	n := s.allocated.Load()
	if n&pageMask == 0 {
		// Filters never outnumber slots: the last page holds only what the
		// remaining slots can use.
		s.pages = append(s.pages, make([]uint64, min(1<<pageShift, s.opts.Slots-n)*s.words))
	}
	s.allocated.Store(n + 1)
	s.read[slot] = uint32(n + 1)
	if p := s.opts.Probes; p != nil {
		p.FilterAllocs.Inc()
	}
	return s.record(uint32(n + 1))
}

// tick counts one operation and publishes on the cadence.
func (s *Asymmetric) tick() {
	s.ops++
	if s.ops&(publishEvery-1) == 0 {
		s.Publish()
	}
}

// ObserveRead implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveRead(addr uint64, tid int32) (int32, bool) {
	rs, ws := s.slots(addr)
	writer := s.write[ws] - 1 // an empty slot yields NoWriter
	already := s.bloom.Add(s.filter(rs), s.opts.SeedRead^rs, uint64(tid))
	s.tick()
	return writer, !already
}

// ObserveWrite implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveWrite(addr uint64, tid int32) {
	rs, ws := s.slots(addr)
	// Clear the correspondent bloom filter in the read signature: the write
	// produces a new value, so earlier readers must count again (Fig. 2's
	// communicating-access rule).
	if idx := s.read[rs]; idx != 0 {
		clear(s.record(idx))
		s.resets++
	}
	s.write[ws] = tid + 1
	s.tick()
}

// Publish refreshes what live readers see: the LiveFillRatio snapshot, and
// Probes.ReaderResets. The signature publishes every publishEvery
// operations; its owner calls Publish once more when a run ends.
func (s *Asymmetric) Publish() {
	s.fill.Store(math.Float64bits(s.FillRatio(publishSample)))
	if p := s.opts.Probes; p != nil {
		p.ReaderResets.Add(s.resets)
	}
	s.resets = 0
}

// LiveFillRatio returns the last published fill ratio. Safe to call from any
// goroutine while the owner runs.
func (s *Asymmetric) LiveFillRatio() float64 { return math.Float64frombits(s.fill.Load()) }

// FootprintBytes implements Backend: the live heap held by the two arrays
// plus every allocated filter record. Each slot costs 4 bytes of write
// signature (as in Eq. 2) and 4 bytes of filter index; the unused tail of
// the arena's last page, at most 2^pageShift records, is not counted.
func (s *Asymmetric) FootprintBytes() uint64 {
	return s.opts.Slots*4 + // write array
		s.opts.Slots*4 + // read level-1 index array
		s.allocated.Load()*s.words*8
}

// ModelBytes returns Eq. 2's closed-form memory bound for this configuration:
// every slot's filter allocated.
func (s *Asymmetric) ModelBytes() uint64 {
	return SigMem(s.opts.Slots, s.opts.Threads, s.opts.FPRate)
}

// Reset clears both signatures and releases the arena.
func (s *Asymmetric) Reset() {
	clear(s.write)
	clear(s.read)
	s.pages = nil
	s.allocated.Store(0)
	s.Publish()
}

// AllocatedFilters reports how many second-level bloom filters exist. Safe
// to call from any goroutine.
func (s *Asymmetric) AllocatedFilters() uint64 { return s.allocated.Load() }

// Occupancy reports the fraction of read-signature slots whose second-level
// bloom filter has been allocated — the signature saturation a live
// telemetry consumer watches to see whether the configured slot count is
// undersized for the workload's working set. Safe to call from any
// goroutine.
func (s *Asymmetric) Occupancy() float64 {
	return float64(s.allocated.Load()) / float64(s.opts.Slots)
}

// FillRatio probes up to sample slots spread at a fixed stride across the
// WHOLE slot range (not the lowest slots, which address-hash locality
// biases) and returns the mean set-bit fraction of the allocated bloom
// filters it finds — the second-level saturation complement to Occupancy;
// 0 when no probed slot holds a filter. It reads the arena, so only the
// owner may call it; other goroutines use LiveFillRatio.
func (s *Asymmetric) FillRatio(sample int) float64 {
	if sample <= 0 {
		sample = 64
	}
	n := len(s.read)
	stride := n / sample
	if stride == 0 {
		stride = 1
	}
	var sum float64
	seen := 0
	for slot := 0; slot < n && seen < sample; slot += stride {
		idx := s.read[slot]
		if idx == 0 {
			continue
		}
		sum += float64(bloom.PopCount(s.record(idx))) / float64(s.bloom.Bits)
		seen++
	}
	if seen == 0 {
		return 0
	}
	return sum / float64(seen)
}

// SigMem is the paper's Equation 2: the total signature memory in bytes for
// n slots, t threads and the given bloom false-positive rate,
//
//	SigMem(n,t) = n · (4 + (−t·ln(FPRate)) / (8·ln²2)).
func SigMem(n uint64, t int, fpRate float64) uint64 {
	perSlot := 4 + (-float64(t)*math.Log(fpRate))/(8*math.Ln2*math.Ln2)
	return uint64(math.Ceil(float64(n) * perSlot))
}
