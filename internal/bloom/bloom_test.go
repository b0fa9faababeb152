package bloom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeriveGeometry(t *testing.T) {
	cases := []struct {
		capacity uint64
		fp       float64
		minBits  uint64
		maxK     int
	}{
		{32, 0.001, 32, 32}, // paper operating point: t=32, FPRate=0.001
		{1, 0.01, 8, 32},    // tiny capacity still gets the 8-bit floor
		{1000, 0.05, 1000, 32},
	}
	for _, c := range cases {
		p := Derive(c.capacity, c.fp)
		if p.Bits < c.minBits {
			t.Errorf("Derive(%d,%g).Bits = %d, want >= %d", c.capacity, c.fp, p.Bits, c.minBits)
		}
		if p.Hashes < 1 || p.Hashes > c.maxK {
			t.Errorf("Derive(%d,%g).Hashes = %d out of range", c.capacity, c.fp, p.Hashes)
		}
	}
}

func TestDeriveClampsDegenerateInputs(t *testing.T) {
	for _, p := range []Params{Derive(0, 0.01), Derive(10, 0), Derive(10, 0.99), Derive(10, -3)} {
		if p.Bits == 0 || p.Hashes < 1 {
			t.Errorf("degenerate input produced unusable geometry %+v", p)
		}
	}
}

func TestBitsPerFilterEq2Term(t *testing.T) {
	// Eq. 2's per-slot term at the paper's operating point:
	// -32·ln(0.001)/ln²(2) ≈ 460 bits ≈ 57.5 bytes (paper divides by 8).
	got := BitsPerFilter(32, 0.001)
	want := -32.0 * math.Log(0.001) / (math.Ln2 * math.Ln2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("BitsPerFilter = %v, want %v", got, want)
	}
	if got < 440 || got > 480 {
		t.Fatalf("BitsPerFilter(32, 0.001) = %v, expected ≈460", got)
	}
}

// filter is a test-local owner of one record: the shape internal/sig gives
// each read-signature slot.
type filter struct {
	l    Layout
	rec  []uint64
	seed uint64
}

func newFilter(threads int, fpRate float64, seed uint64) *filter {
	l := NewLayout(Derive(uint64(threads), fpRate))
	return &filter{l: l, rec: make([]uint64, l.Words()), seed: seed}
}

func (f *filter) Add(v uint64) bool { return f.l.Add(f.rec, f.seed, v) }

// Contains is membership without insertion: Add on a copy of the record.
func (f *filter) Contains(v uint64) bool { return f.l.Add(slices.Clone(f.rec), f.seed, v) }

func TestNoFalseNegatives(t *testing.T) {
	f := func(elems []uint64) bool {
		fl := newFilter(64, 0.01, 1)
		for _, e := range elems {
			fl.Add(e % 64)
		}
		for _, e := range elems {
			if !fl.Contains(e % 64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	fl := newFilter(32, 0.001, 0)
	for v := uint64(0); v < 1000; v++ {
		if fl.Contains(v) {
			t.Fatalf("empty filter claims to contain %d", v)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	// Insert exactly the design capacity and measure the observed FP rate on
	// fresh elements; it should be within ~4x of the target (bloom math is
	// asymptotic, so allow slack).
	const capacity = 32
	const target = 0.01
	fl := newFilter(capacity, target, 12345)
	for v := uint64(0); v < capacity; v++ {
		fl.Add(v)
	}
	fp := 0
	const probes = 100000
	for v := uint64(capacity); v < capacity+probes; v++ {
		if fl.Contains(v) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 4*target {
		t.Fatalf("observed FP rate %v exceeds 4x target %v", rate, target)
	}
}

func TestAddReportsPresence(t *testing.T) {
	fl := newFilter(32, 0.001, 9)
	if fl.Add(7) {
		t.Fatal("first Add reported element present")
	}
	if !fl.Add(7) {
		t.Fatal("second Add did not report element present")
	}
}

func TestReset(t *testing.T) {
	// Clearing a record is the reset Algorithm 1 applies when a write
	// invalidates a slot's reader set.
	fl := newFilter(32, 0.001, 3)
	for v := uint64(0); v < 32; v++ {
		fl.Add(v)
	}
	clear(fl.rec)
	if PopCount(fl.rec) != 0 {
		t.Fatalf("PopCount after clear = %d", PopCount(fl.rec))
	}
	for v := uint64(0); v < 32; v++ {
		if fl.Contains(v) {
			t.Fatalf("element %d survived clear", v)
		}
	}
}

func TestEstimateCardinality(t *testing.T) {
	fl := newFilter(256, 0.01, 5)
	const n = 100
	for v := uint64(0); v < n; v++ {
		fl.Add(v)
	}
	est := fl.l.EstimateCardinality(PopCount(fl.rec))
	if est < n*0.7 || est > n*1.3 {
		t.Fatalf("cardinality estimate %v for %d inserted elements", est, n)
	}
}

func TestSizeBytesMatchesGeometry(t *testing.T) {
	for _, c := range []struct {
		bits  uint64
		words int
	}{{512, 8}, {461, 8}, {8, 1}, {65, 2}} {
		l := NewLayout(Params{Bits: c.bits, Hashes: 4})
		if l.Words() != c.words {
			t.Errorf("Words(%d bits) = %d, want %d", c.bits, l.Words(), c.words)
		}
	}
	if p := Derive(32, 0.001); NewLayout(p).Words()*8 != 64 {
		t.Fatalf("the 32-thread paper filter (%d bits) is not one 64-byte record", p.Bits)
	}
}

// TestModMatchesRemainder pins the Barrett modulus to Go's % over every
// geometry Derive produces for 1..256 threads and the paper's FP rates, on
// random and boundary inputs: probe positions must never move.
func TestModMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := []uint64{0, 1, 2, 1<<63 - 1, 1 << 63, ^uint64(0), ^uint64(0) - 1}
	for threads := uint64(1); threads <= 256; threads++ {
		for _, fp := range []float64{0.1, 0.01, 0.001, 1e-6} {
			l := NewLayout(Derive(threads, fp))
			m := l.Bits
			xs := append([]uint64{m - 1, m, m + 1, ^uint64(0) / m * m, ^uint64(0)/m*m - 1}, edges...)
			for i := 0; i < 2000; i++ {
				xs = append(xs, rng.Uint64())
			}
			for _, x := range xs {
				if got, want := l.mod(x), x%m; got != want {
					t.Fatalf("m=%d: mod(%d) = %d, want %d", m, x, got, want)
				}
			}
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	fl := newFilter(32, 0.001, 0)
	for i := 0; i < b.N; i++ {
		fl.Add(uint64(i) & 31)
	}
}

func BenchmarkContains(b *testing.B) {
	fl := newFilter(32, 0.001, 0)
	for v := uint64(0); v < 32; v++ {
		fl.Add(v)
	}
	for i := 0; i < b.N; i++ {
		fl.Contains(uint64(i) & 63)
	}
}
