package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	s := New(130) // crosses two word boundaries
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) || s.Count() != 7 {
		t.Fatalf("Clear(64) failed: count %d", s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Reset left %d bits", s.Count())
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(10).Set(10)
}

func TestSetMatchesMapModel(t *testing.T) {
	// Property: a Set behaves exactly like a map[uint64]bool model under a
	// random operation sequence.
	f := func(ops []uint16, seed int64) bool {
		const n = 512
		s := New(n)
		model := map[uint64]bool{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := uint64(op) % n
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Test(i) != model[i] {
					return false
				}
			}
		}
		return s.Count() == uint64(len(model))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(1).SizeBytes(); got != 8 {
		t.Errorf("1-bit set SizeBytes = %d, want 8", got)
	}
	if got := New(64).SizeBytes(); got != 8 {
		t.Errorf("64-bit set SizeBytes = %d, want 8", got)
	}
	if got := New(65).SizeBytes(); got != 16 {
		t.Errorf("65-bit set SizeBytes = %d, want 16", got)
	}
}
