package sig

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
)

func newTestSig(t *testing.T, slots uint64) *Asymmetric {
	t.Helper()
	s, err := NewAsymmetric(Options{Slots: slots, Threads: 32, FPRate: 0.001})
	if err != nil {
		t.Fatalf("NewAsymmetric: %v", err)
	}
	return s
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Slots: 0, Threads: 32, FPRate: 0.001},
		{Slots: 10, Threads: 0, FPRate: 0.001},
		{Slots: 10, Threads: 4, FPRate: 0},
		{Slots: 10, Threads: 4, FPRate: 1},
	}
	for i, o := range bad {
		if _, err := NewAsymmetric(o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestRAWSequence(t *testing.T) {
	s := newTestSig(t, 1<<16)
	const addr = 0x1000

	// Read before any write: no writer recorded.
	if w, first := s.ObserveRead(addr, 1); w != NoWriter || !first {
		t.Fatalf("read-before-write = (%d,%v), want (NoWriter,true)", w, first)
	}

	// T0 writes, T1 reads: writer seen, first read (write cleared T1's record).
	s.ObserveWrite(addr, 0)
	w, first := s.ObserveRead(addr, 1)
	if w != 0 || !first {
		t.Fatalf("after write: (%d,%v), want (0,true)", w, first)
	}

	// Second read by T1 without intervening write: not a first read.
	if _, first := s.ObserveRead(addr, 1); first {
		t.Fatal("repeat read reported as first")
	}

	// Different thread's first read still counts.
	if w, first := s.ObserveRead(addr, 2); w != 0 || !first {
		t.Fatalf("T2 read = (%d,%v), want (0,true)", w, first)
	}

	// A new write resets the reader set: T1 reads count again.
	s.ObserveWrite(addr, 3)
	if w, first := s.ObserveRead(addr, 1); w != 3 || !first {
		t.Fatalf("after rewrite = (%d,%v), want (3,true)", w, first)
	}
}

func TestWriteOverwritesWriter(t *testing.T) {
	s := newTestSig(t, 1<<16)
	s.ObserveWrite(0x2000, 5)
	s.ObserveWrite(0x2000, 9)
	if w, _ := s.ObserveRead(0x2000, 1); w != 9 {
		t.Fatalf("last writer = %d, want 9", w)
	}
}

func TestThreadZeroIsValidWriter(t *testing.T) {
	// Thread 0 must be distinguishable from "no writer" (+1 encoding).
	s := newTestSig(t, 1<<12)
	s.ObserveWrite(0x3000, 0)
	if w, _ := s.ObserveRead(0x3000, 1); w != 0 {
		t.Fatalf("writer = %d, want 0", w)
	}
}

func TestReset(t *testing.T) {
	s := newTestSig(t, 1<<12)
	s.ObserveWrite(0x10, 2)
	s.ObserveRead(0x10, 3)
	s.Reset()
	if w, first := s.ObserveRead(0x10, 3); w != NoWriter || !first {
		t.Fatalf("after Reset: (%d,%v)", w, first)
	}
	if s.AllocatedFilters() != 1 { // the read above re-allocated exactly one
		t.Fatalf("AllocatedFilters = %d, want 1", s.AllocatedFilters())
	}
}

func TestMatchesPerfectWhenLarge(t *testing.T) {
	// With a huge slot count relative to the address set, the signature must
	// agree with the perfect backend on essentially every event; a handful
	// of residual hash collisions (birthday bound) are tolerated.
	s := newTestSig(t, 1<<22)
	p := NewPerfect(32)
	rng := rand.New(rand.NewSource(7))
	const addrs = 512
	reads, mismatches := 0, 0
	for i := 0; i < 20000; i++ {
		addr := uint64(0x4000 + 8*rng.Intn(addrs))
		tid := int32(rng.Intn(32))
		if rng.Intn(3) == 0 {
			s.ObserveWrite(addr, tid)
			p.ObserveWrite(addr, tid)
		} else {
			reads++
			ws, fs := s.ObserveRead(addr, tid)
			wp, fp := p.ObserveRead(addr, tid)
			if ws != wp || fs != fp {
				mismatches++
			}
		}
	}
	if rate := float64(mismatches) / float64(reads); rate > 0.01 {
		t.Fatalf("mismatch rate %.4f (%d/%d) too high for a 4M-slot signature", rate, mismatches, reads)
	}
}

func TestSmallSignatureProducesFalsePositives(t *testing.T) {
	// The core trade-off (§V-A3): with far fewer slots than addresses,
	// collisions must create writer reports the perfect backend rejects.
	s, err := NewAsymmetric(Options{Slots: 64, Threads: 32, FPRate: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPerfect(32)
	fp := 0
	for i := 0; i < 4096; i++ {
		addr := uint64(0x8000 + 8*i)
		if i%2 == 0 {
			s.ObserveWrite(addr, 1)
			p.ObserveWrite(addr, 1)
			continue
		}
		ws, _ := s.ObserveRead(addr, 2)
		wp, _ := p.ObserveRead(addr, 2)
		if ws != NoWriter && wp == NoWriter {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("64-slot signature produced zero false positives over 4096 distinct addresses")
	}
}

func TestEq2PaperOperatingPoint(t *testing.T) {
	// §V-A2: n=1e7 slots, t=32 threads, FPRate=0.001 → "around 580MB could
	// be sufficient". Eq. 2 gives n·(4+(−32·ln0.001)/(8·ln²2)) ≈ 6.15e8 B.
	got := SigMem(10_000_000, 32, 0.001)
	perSlot := 4 + (-32*math.Log(0.001))/(8*math.Ln2*math.Ln2)
	want := uint64(math.Ceil(1e7 * perSlot))
	if got != want {
		t.Fatalf("SigMem = %d, want %d", got, want)
	}
	mb := float64(got) / (1 << 20)
	if mb < 500 || mb > 650 {
		t.Fatalf("SigMem(1e7,32,0.001) = %.1f MB, paper says ≈580 MB", mb)
	}
}

func TestSigMemMonotonic(t *testing.T) {
	f := func(nSmall, nBig uint32, threads uint8) bool {
		if nSmall > nBig {
			nSmall, nBig = nBig, nSmall
		}
		tc := int(threads%64) + 1
		return SigMem(uint64(nSmall), tc, 0.001) <= SigMem(uint64(nBig), tc, 0.001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintBoundedByModel(t *testing.T) {
	s := newTestSig(t, 1<<14)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		addr := uint64(rng.Int63())
		if i%4 == 0 {
			s.ObserveWrite(addr, int32(i%32))
		} else {
			s.ObserveRead(addr, int32(i%32))
		}
	}
	foot := s.FootprintBytes()
	// Upper bound from the actual geometry: the 4-byte write slot and the
	// 4-byte filter index per slot, plus every slot's filter rounded up to
	// whole 64-bit words (Eq. 2 models the unrounded bit count, so it sits
	// slightly below this rounded-up bound).
	perFilter := (bloom.Derive(32, 0.001).Bits + 63) / 64 * 8
	bound := uint64(1<<14)*(4+4) + uint64(1<<14)*perFilter
	if foot > bound {
		t.Fatalf("footprint %d exceeds geometry bound %d", foot, bound)
	}
	if s.AllocatedFilters() == 0 {
		t.Fatal("no filters allocated after 100k accesses")
	}
}

func TestFootprintFixedUnderGrowingWorkingSet(t *testing.T) {
	// §V-A2's headline property: memory consumption stays fixed regardless
	// of the program's input size. Saturate the signature with two working
	// sets that differ 10x and compare.
	measure := func(addrs int) uint64 {
		s := newTestSig(t, 4096)
		for i := 0; i < addrs; i++ {
			s.ObserveWrite(uint64(i*64), 0)
			s.ObserveRead(uint64(i*64), 1)
		}
		return s.FootprintBytes()
	}
	small, large := measure(100_000), measure(1_000_000)
	if small != large {
		t.Fatalf("footprint grew with working set: %d -> %d", small, large)
	}
}

func TestPerfectFootprintGrows(t *testing.T) {
	p := NewPerfect(32)
	p.ObserveWrite(0, 0)
	f1 := p.FootprintBytes()
	for i := uint64(0); i < 1000; i++ {
		p.ObserveWrite(i*8, 0)
	}
	if p.FootprintBytes() <= f1 {
		t.Fatal("perfect backend footprint did not grow with distinct addresses")
	}
	if p.Entries() != 1000 {
		t.Fatalf("Entries = %d, want 1000", p.Entries())
	}
}

func TestBackendInterfaceCompliance(t *testing.T) {
	var _ Backend = &Asymmetric{}
	var _ Backend = &Perfect{}
	s := newTestSig(t, 16)
	if s.Name() == "" || NewPerfect(2).Name() == "" {
		t.Error("backends must have names")
	}
}

func TestFusedSlotsPreserveReadMapping(t *testing.T) {
	// The fused single-pass addressing must keep the read-slot mapping
	// bit-identical to the historical per-array hash (HashAddr with
	// SeedRead), and the write half must not degenerate into the read half.
	s := newTestSig(t, 1<<16)
	same := 0
	for i := 0; i < 4096; i++ {
		addr := uint64(i) * 2654435761
		rs, ws := s.slots(addr)
		if want := murmur.HashAddr(addr, s.opts.SeedRead) % s.opts.Slots; rs != want {
			t.Fatalf("addr %#x: fused read slot %d, historical mapping %d", addr, rs, want)
		}
		if rs == ws {
			same++
		}
	}
	// Two independent uniform hashes over 2^16 slots collide ~1/65536 per
	// address; tolerate a little slack.
	if same > 4 {
		t.Errorf("read and write slots coincided %d/4096 times; halves not independent", same)
	}
}

func TestFillRatioSamplesWholeSlotRange(t *testing.T) {
	// Regression for the sampling bias: the old implementation scanned from
	// slot 0 and stopped at the first `sample` allocated filters, so with
	// more filters live than the sample size the estimate came exclusively
	// from the lowest slots. Allocate near-empty filters in the low half and
	// heavily-filled ones in the high half; a stride over the whole range
	// must see both populations.
	s := newTestSig(t, 1024)
	add := func(slot, tid uint64) { s.bloom.Add(s.filter(slot), s.opts.SeedRead^slot, tid) }
	fill := func(slot uint64) float64 { return float64(bloom.PopCount(s.filter(slot))) / float64(s.bloom.Bits) }
	for slot := uint64(0); slot < 256; slot++ {
		add(slot, 0) // one element: fill ≈ k/filterBits
	}
	for slot := uint64(512); slot < 768; slot++ {
		for tid := uint64(0); tid < 32; tid++ {
			add(slot, tid) // saturated for the configured thread count
		}
	}
	lowOnly := fill(0)
	got := s.FillRatio(64)
	if got <= 2*lowOnly {
		t.Fatalf("FillRatio(64) = %v, indistinguishable from the low-slot population %v: high slots not sampled", got, lowOnly)
	}
	high := fill(512)
	if want := (lowOnly + high) / 2; got < want/2 || got > want*2 {
		t.Errorf("FillRatio(64) = %v, not within 2x of the two-population mean %v", got, want)
	}
}

func TestFillRatioNoFilters(t *testing.T) {
	s := newTestSig(t, 1024)
	if got := s.FillRatio(64); got != 0 {
		t.Fatalf("FillRatio on empty signature = %v, want 0", got)
	}
}

// TestSlotsBeyondIndexRejected pins the uint32 filter-index bound: a slot
// count the index cannot address must fail with a *SlotsError before the
// 2^32-element arrays are allocated. The memory limit makes an allocation
// attempt show up as a GC storm rather than passing silently, and the
// allocation counter proves nothing large was requested.
func TestSlotsBeyondIndexRejected(t *testing.T) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	for _, slots := range []uint64{MaxSlots + 1, 1 << 40, math.MaxUint64} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewAsymmetric(Options{Slots: slots, Threads: 32, FPRate: 0.001})
		runtime.ReadMemStats(&after)
		var se *SlotsError
		if !errors.As(err, &se) || se.Slots != slots {
			t.Fatalf("Slots=%d: err = %v, want *SlotsError", slots, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("Slots=%d: allocated %d bytes before rejecting", slots, grew)
		}
	}
	if _, err := NewAsymmetric(Options{Slots: 0, Threads: 32, FPRate: 0.001}); !errors.As(err, new(*SlotsError)) {
		t.Fatalf("Slots=0: err = %v, want *SlotsError", err)
	}
}

// TestObserveAllocationFree pins the arena's allocation contract: once a
// page exists, reads, writes and first-touch filter allocations within it
// make no heap allocation.
func TestObserveAllocationFree(t *testing.T) {
	s := newTestSig(t, 1<<16)
	s.ObserveRead(0, 0) // allocates the first page
	addr := uint64(0)
	if allocs := testing.AllocsPerRun(2000, func() {
		addr += 8
		s.ObserveWrite(addr, 1)
		s.ObserveRead(addr, 2)
		s.ObserveRead(addr, 2)
	}); allocs != 0 {
		t.Fatalf("%v allocations per write+2 reads", allocs)
	}
	if n := s.AllocatedFilters(); n < 1000 || n >= 1<<pageShift {
		t.Fatalf("%d filters allocated: the loop must allocate records within one page", n)
	}
}

// TestLiveSnapshotPublished pins the owner-published telemetry: nothing is
// visible to live readers before the first publish, the cadence publishes
// without help, and an explicit Publish makes the snapshot equal the exact
// owner-side FillRatio.
func TestLiveSnapshotPublished(t *testing.T) {
	s := newTestSig(t, 1<<12)
	for i := 0; i < 1000; i++ {
		s.ObserveRead(uint64(i)*8, int32(i%32))
	}
	if s.LiveFillRatio() != 0 {
		t.Fatalf("LiveFillRatio = %v before any publish", s.LiveFillRatio())
	}
	if s.AllocatedFilters() == 0 {
		t.Fatal("AllocatedFilters must track allocations without a publish")
	}
	for i := 1000; i < publishEvery; i++ {
		s.ObserveRead(uint64(i)*8, int32(i%32))
	}
	if s.LiveFillRatio() != s.FillRatio(publishSample) {
		t.Fatalf("cadence publish: live %v, exact %v", s.LiveFillRatio(), s.FillRatio(publishSample))
	}
	s.ObserveWrite(8, 1)
	s.Publish()
	if s.LiveFillRatio() != s.FillRatio(publishSample) {
		t.Fatalf("explicit publish: live %v, exact %v", s.LiveFillRatio(), s.FillRatio(publishSample))
	}
}

// BenchmarkObserveRead is the miss-heavy hot-loop shape (every access a new
// address): one fused hash pass, one write-slot load, one bloom Add.
func BenchmarkObserveRead(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32, FPRate: 0.001})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveRead(uint64(i)&0xffff*8, int32(i&31))
	}
}

func BenchmarkObserveReadHit(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32, FPRate: 0.001})
	s.ObserveWrite(0x1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveRead(0x1000, int32(i&31))
	}
}

func BenchmarkObserveWrite(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32, FPRate: 0.001})
	for i := 0; i < b.N; i++ {
		s.ObserveWrite(uint64(i)&0xffff*8, int32(i&31))
	}
}

func BenchmarkPerfectObserveRead(b *testing.B) {
	p := NewPerfect(32)
	p.ObserveWrite(0x1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveRead(0x1000, int32(i&31))
	}
}
