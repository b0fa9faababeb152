package exec

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"commprof/internal/trace"
)

// collectProbe records accesses; safe for single-threaded deterministic runs.
func collectProbe(out *[]trace.Access) Probe {
	return func(a trace.Access) { *out = append(*out, a) }
}

func TestDeterministicRunBasics(t *testing.T) {
	var got []trace.Access
	e := New(Options{Threads: 4, Quantum: 3, Probe: collectProbe(&got)})
	stats, err := e.Run(func(th *Thread) {
		base := uint64(0x1000 + 0x100*uint64(th.ID()))
		for i := uint64(0); i < 5; i++ {
			th.Write(base+8*i, 8)
			th.Read(base+8*i, 8)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Accesses != 4*10 || stats.Reads != 20 || stats.Writes != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != 40 {
		t.Fatalf("probe saw %d accesses", len(got))
	}
	// Logical times must be strictly increasing in probe order
	// (deterministic mode runs one thread at a time).
	for i := 1; i < len(got); i++ {
		if got[i].Time <= got[i-1].Time {
			t.Fatalf("time not increasing at %d: %d then %d", i, got[i-1].Time, got[i].Time)
		}
	}
}

func TestDeterministicReproducible(t *testing.T) {
	run := func() []trace.Access {
		var got []trace.Access
		e := New(Options{Threads: 8, Quantum: 5, Probe: collectProbe(&got)})
		if _, err := e.Run(func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.Write(uint64(0x2000+i*8), 8)
				th.Work(2)
				th.Read(uint64(0x2000+((i+int(th.ID()))%20)*8), 8)
				if i%7 == 0 {
					th.Barrier()
				}
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical deterministic runs produced different access orders")
	}
}

func TestQuantumInterleavesThreads(t *testing.T) {
	// With quantum 2 and two threads each doing 6 accesses, the probe order
	// must alternate in blocks of 2, not run thread 0 to completion first.
	var got []trace.Access
	e := New(Options{Threads: 2, Quantum: 2, Probe: collectProbe(&got)})
	if _, err := e.Run(func(th *Thread) {
		for i := 0; i < 6; i++ {
			th.Read(uint64(0x3000+i*8), 8)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantThreads := []int32{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i, a := range got {
		if a.Thread != wantThreads[i] {
			t.Fatalf("access %d from thread %d, want %d (full order %v)", i, a.Thread, wantThreads[i], threadsOf(got))
		}
	}
}

func threadsOf(as []trace.Access) []int32 {
	out := make([]int32, len(as))
	for i, a := range as {
		out[i] = a.Thread
	}
	return out
}

func TestBarrierOrdersPhases(t *testing.T) {
	// Phase 1: every thread writes; barrier; phase 2: every thread reads.
	// All writes must precede all reads in probe order.
	var got []trace.Access
	e := New(Options{Threads: 4, Quantum: 1, Probe: collectProbe(&got)})
	stats, err := e.Run(func(th *Thread) {
		th.Write(uint64(0x4000+int(th.ID())*8), 8)
		th.Barrier()
		th.Read(uint64(0x4000+((int(th.ID())+1)%4)*8), 8)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Barriers != 1 {
		t.Fatalf("Barriers = %d, want 1", stats.Barriers)
	}
	seenRead := false
	for _, a := range got {
		if a.Kind == trace.Read {
			seenRead = true
		} else if seenRead {
			t.Fatal("write after read: barrier did not order phases")
		}
	}
}

func TestMultipleBarriers(t *testing.T) {
	e := New(Options{Threads: 3})
	stats, err := e.Run(func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Work(1)
			th.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Barriers != 5 {
		t.Fatalf("Barriers = %d, want 5", stats.Barriers)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Counter protected by lock 7: with quantum 1 forcing interleaving, the
	// final count must still be exact.
	counter := 0
	e := New(Options{Threads: 8, Quantum: 1})
	_, err := e.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Acquire(7)
			v := counter
			th.Work(3) // invite preemption inside the critical section
			counter = v + 1
			th.Release(7)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 80 {
		t.Fatalf("counter = %d, want 80", counter)
	}
}

func TestReleaseWithoutHoldPanicsThread(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) { th.Release(3) })
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("err = %v, want lock-release error", err)
	}
}

func TestRecursiveAcquirePanics(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) {
		th.Acquire(1)
		th.Acquire(1)
	})
	if err == nil || !strings.Contains(err.Error(), "re-acquired") {
		t.Fatalf("err = %v, want re-acquire error", err)
	}
}

func TestRegionAttribution(t *testing.T) {
	var got []trace.Access
	e := New(Options{Threads: 1, Probe: collectProbe(&got)})
	if _, err := e.Run(func(th *Thread) {
		th.Read(0x10, 8) // outside any region
		th.EnterRegion(0)
		th.Read(0x18, 8)
		th.InRegion(1, func() { th.Write(0x20, 8) })
		th.Read(0x28, 8)
		th.ExitRegion()
		th.Read(0x30, 8)
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantRegions := []int32{trace.NoRegion, 0, 1, 0, trace.NoRegion}
	for i, a := range got {
		if a.Region != wantRegions[i] {
			t.Fatalf("access %d region %d, want %d", i, a.Region, wantRegions[i])
		}
	}
}

func TestExitRegionUnderflowIsThreadError(t *testing.T) {
	e := New(Options{Threads: 1})
	_, err := e.Run(func(th *Thread) { th.ExitRegion() })
	if err == nil {
		t.Fatal("expected error from region-stack underflow")
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	e := New(Options{Threads: 2})
	_, err := e.Run(func(th *Thread) {
		if th.ID() == 1 {
			panic("boom")
		}
		// Thread 0 must still terminate: no barrier involved.
		th.Work(10)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Thread 0 waits at a barrier holding lock 1; thread 1 waits for lock 1.
	e := New(Options{Threads: 2, Quantum: 1})
	_, err := e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		} else {
			th.Acquire(1)
			th.Barrier()
			th.Release(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestEngineSingleShot(t *testing.T) {
	e := New(Options{Threads: 1})
	if _, err := e.Run(func(*Thread) {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := e.Run(func(*Thread) {}); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestInvalidThreadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{Threads: 0})
}

func TestParallelModeRuns(t *testing.T) {
	var mu sync.Mutex
	var count int
	e := New(Options{Threads: 8, Parallel: true, Probe: func(a trace.Access) {
		mu.Lock()
		count++
		mu.Unlock()
	}})
	stats, err := e.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Write(uint64(0x9000+int(th.ID())*1024+i*8), 8)
		}
		th.Barrier()
		for i := 0; i < 100; i++ {
			th.Read(uint64(0x9000+((int(th.ID())+1)%8)*1024+i*8), 8)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 1600 || stats.Accesses != 1600 {
		t.Fatalf("count=%d stats=%+v", count, stats)
	}
	if stats.Barriers != 1 {
		t.Fatalf("Barriers = %d", stats.Barriers)
	}
}

func TestParallelLocks(t *testing.T) {
	counter := 0
	e := New(Options{Threads: 8, Parallel: true})
	if _, err := e.Run(func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Acquire(1)
			counter++
			th.Release(1)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 8000 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestParallelSyncOrdersStagedAccesses pins the Sync contract a per-thread
// staging consumer relies on: each thread's accesses staged before a barrier
// or a lock release are handed over (Sync) before any other thread can pass
// that synchronisation, and the rest when the body returns. The consumer
// below stages privately and appends to one log only in Sync, so every
// pre-barrier write must precede every post-barrier read in the log, and
// every critical section's accesses must form one contiguous run.
func TestParallelSyncOrdersStagedAccesses(t *testing.T) {
	const threads = 6
	staged := make([][]trace.Access, threads)
	var mu sync.Mutex
	var log []trace.Access
	e := New(Options{
		Threads: threads, Parallel: true,
		Probe: func(a trace.Access) { staged[a.Thread] = append(staged[a.Thread], a) },
		Sync: func(thread int32) {
			mu.Lock()
			log = append(log, staged[thread]...)
			mu.Unlock()
			staged[thread] = staged[thread][:0]
		},
	})
	if _, err := e.Run(func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Write(uint64(0x1000+int(th.ID())*1024+i*8), 8)
		}
		th.Barrier()
		for i := 0; i < 50; i++ {
			th.Read(uint64(0x1000+((int(th.ID())+1)%threads)*1024+i*8), 8)
		}
		th.Barrier()
		for round := 0; round < 5; round++ {
			th.Acquire(7)
			for i := 0; i < 4; i++ {
				th.Write(0x9000, 8)
			}
			th.Release(7)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := threads * (50 + 50 + 5*4); len(log) != want {
		t.Fatalf("log holds %d accesses, want %d: Sync missed staged accesses", len(log), want)
	}
	reads := 0
	for i, a := range log[:threads*100] {
		if a.Kind == trace.Read {
			reads++
		} else if reads > 0 {
			t.Fatalf("log[%d]: pre-barrier write after %d post-barrier reads", i, reads)
		}
	}
	for i := threads * 100; i < len(log); i += 4 {
		for j := i + 1; j < i+4; j++ {
			if log[j].Thread != log[i].Thread {
				t.Fatalf("critical section at log[%d] interleaved with thread %d", i, log[j].Thread)
			}
		}
	}
}

func TestParallelPanicPropagates(t *testing.T) {
	e := New(Options{Threads: 4, Parallel: true})
	_, err := e.Run(func(th *Thread) {
		if th.ID() == 2 {
			panic("kaput")
		}
		th.Barrier() // would hang forever if abort did not break the barrier
	})
	if err == nil {
		t.Fatal("expected error from panicking parallel thread")
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	e := New(Options{Threads: 1})
	stats, err := e.Run(func(th *Thread) {
		th.Work(100)
		th.Read(0x50, 8)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.WorkUnits != 100 {
		t.Fatalf("WorkUnits = %d", stats.WorkUnits)
	}
	if stats.Clock != 101 {
		t.Fatalf("Clock = %d, want 101", stats.Clock)
	}
}

func BenchmarkDeterministicAccess(b *testing.B) {
	e := New(Options{Threads: 4, Quantum: 256})
	n := b.N
	_, err := e.Run(func(th *Thread) {
		for i := 0; i < n/4; i++ {
			th.Read(uint64(0x1000+i*8), 8)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
