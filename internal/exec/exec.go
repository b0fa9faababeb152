// Package exec runs workloads on simulated shared-memory threads and fires
// the instrumentation probe on every memory access.
//
// Two modes are provided:
//
//   - Deterministic (default): threads execute cooperatively under a strict
//     round-robin scheduler with a configurable access quantum, so every run
//     produces the identical temporal access order. This supplies Algorithm
//     1's requirement that accesses be processed in temporal order, and makes
//     all experiments reproducible.
//
//   - Parallel: threads run as free goroutines and the probe is invoked
//     concurrently from them. The paper analyses inside these threads
//     (§IV-D3); commprof instead has each thread stage its accesses for a
//     single-owner analyser, and Options.Sync tells it where a thread's
//     accesses must reach the analyser before another thread's.
//
// The engine substitutes for native pthread execution of the paper's testbed;
// communication-matrix shape depends only on which threads touch which
// addresses and in what order, which both modes preserve (the deterministic
// mode fixes one valid interleaving).
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"commprof/internal/obs"
	"commprof/internal/trace"
)

// Probe receives every instrumented access. In parallel mode it must be safe
// for concurrent use.
type Probe func(a trace.Access)

// Options configures an Engine.
type Options struct {
	Threads  int   // number of simulated threads (>=1)
	Quantum  int   // deterministic mode: accesses per scheduling turn; default 64
	Parallel bool  // run threads as free goroutines instead of round-robin
	Probe    Probe // may be nil (uninstrumented "native" run)
	// Sync, when non-nil, is called in parallel mode on a thread's own
	// goroutine wherever its earlier accesses become ordered before other
	// threads' later ones: before a barrier wait, before a lock release and
	// when the body returns. A probe that stages accesses per thread
	// flushes there, so accesses ordered by synchronisation reach the
	// analyser in that order. The deterministic scheduler serialises every
	// probe call and never calls Sync.
	Sync func(thread int32)
	// Probes, when non-nil, receives scheduler telemetry (quantum switches,
	// barrier/lock wait episodes). Nil keeps the uninstrumented path
	// allocation-free at the cost of one nil check per hook site.
	Probes *obs.EngineProbes
}

// Stats summarises an engine run.
type Stats struct {
	Accesses  uint64 // total instrumented accesses
	Reads     uint64
	Writes    uint64
	Elided    uint64 // accesses whose probes static coalescing elided
	WorkUnits uint64 // simulated computation units
	Barriers  uint64 // barrier episodes completed
	Clock     uint64 // final logical time
}

type threadState uint8

const (
	stRunnable threadState = iota
	stBarrier
	stLock
	stDone
)

// Engine coordinates one run of a workload body across N threads.
type Engine struct {
	opts Options

	clock atomic.Uint64

	// threads is allocated at New (not Run) so live-introspection readers
	// can snapshot per-thread progress without racing on the slice itself.
	threads []*Thread

	// Deterministic-mode scheduler state (owned by the scheduler goroutine
	// between yields).
	yieldCh       chan int32
	locks         map[int]int32 // lock id -> holding thread, absent/-1 when free
	barrierEpochs atomic.Uint64

	// Parallel-mode state.
	parMu      sync.Mutex
	parLocks   map[int]*sync.Mutex
	parBarrier *barrier

	ran bool
	err error
}

// New creates an engine. It panics on a non-positive thread count (a
// configuration bug, not input error).
func New(opts Options) *Engine {
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("exec: invalid thread count %d", opts.Threads))
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 64
	}
	e := &Engine{
		opts:     opts,
		yieldCh:  make(chan int32),
		locks:    map[int]int32{},
		parLocks: map[int]*sync.Mutex{},
	}
	e.threads = make([]*Thread, opts.Threads)
	for i := range e.threads {
		e.threads[i] = &Thread{
			id:       int32(i),
			eng:      e,
			resume:   make(chan struct{}),
			parallel: opts.Parallel,
		}
	}
	if opts.Parallel {
		e.parBarrier = newBarrier(opts.Threads)
	}
	return e
}

// Threads returns the configured thread count.
func (e *Engine) Threads() int { return e.opts.Threads }

// Clock returns the current logical time.
func (e *Engine) Clock() uint64 { return e.clock.Load() }

// Run executes body once per thread and blocks until all threads finish.
// An Engine is single-shot; a second Run returns an error.
func (e *Engine) Run(body func(t *Thread)) (Stats, error) {
	if e.ran {
		return Stats{}, errors.New("exec: engine already ran")
	}
	e.ran = true
	if e.opts.Parallel {
		return e.runParallel(body)
	}
	return e.runDeterministic(body)
}

func (e *Engine) runDeterministic(body func(t *Thread)) (Stats, error) {
	n := e.opts.Threads
	for _, t := range e.threads {
		go t.main(body)
	}

	live := n
	for live > 0 {
		progressed := false
		for _, t := range e.threads {
			if t.state == stLock {
				if holder, held := e.locks[t.waitLock]; !held || holder == -1 {
					t.state = stRunnable
				}
			}
			if t.state != stRunnable {
				continue
			}
			progressed = true
			if p := e.opts.Probes; p != nil {
				p.QuantumSwitches.Inc()
			}
			t.budget = e.opts.Quantum
			t.resume <- struct{}{}
			<-e.yieldCh
			if t.state == stDone {
				live--
			}
		}
		// Barrier release: every live thread parked at the barrier.
		if live > 0 {
			waiting := 0
			for _, t := range e.threads {
				if t.state == stBarrier {
					waiting++
				}
			}
			if waiting == live {
				for _, t := range e.threads {
					if t.state == stBarrier {
						t.state = stRunnable
					}
				}
				e.barrierEpochs.Add(1)
				progressed = true
			}
		}
		if !progressed && live > 0 {
			e.failStuckThreads(live)
			return e.collectStats(), fmt.Errorf("exec: deadlock with %d live threads (mixed barrier/lock wait)", live)
		}
	}
	return e.collectStats(), e.err
}

// failStuckThreads unblocks deadlocked goroutines so they exit; the engine is
// unusable afterwards but does not leak goroutines.
func (e *Engine) failStuckThreads(live int) {
	for _, t := range e.threads {
		if t.state != stDone {
			t.aborted = true
			t.state = stRunnable
			t.budget = 1 << 30
			t.resume <- struct{}{}
			<-e.yieldCh
		}
	}
}

func (e *Engine) collectStats() Stats {
	var s Stats
	for _, t := range e.threads {
		s.Accesses += t.accesses.Load()
		s.Reads += t.reads.Load()
		s.Writes += t.writes.Load()
		s.Elided += t.elided.Load()
		s.WorkUnits += t.work.Load()
	}
	s.Barriers = e.BarrierEpochs()
	s.Clock = e.clock.Load()
	return s
}

func (e *Engine) runParallel(body func(t *Thread)) (Stats, error) {
	var wg sync.WaitGroup
	var panicOnce sync.Once
	for _, t := range e.threads {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { e.err = fmt.Errorf("exec: thread %d panicked: %v", t.id, r) })
					// Unblock peers that might wait at a barrier forever.
					e.parBarrier.abort()
				}
			}()
			body(t)
			if flush := e.opts.Sync; flush != nil {
				flush(t.id)
			}
		}()
	}
	wg.Wait()
	return e.collectStats(), e.err
}

// ThreadProgress snapshots each thread's instrumented access count. Safe to
// call while a run is in flight — this is the per-thread progress feed of
// the live /progress endpoint.
func (e *Engine) ThreadProgress() []uint64 {
	out := make([]uint64, len(e.threads))
	for i, t := range e.threads {
		out[i] = t.accesses.Load()
	}
	return out
}

// BarrierEpochs reports completed barrier episodes so far; safe mid-run.
func (e *Engine) BarrierEpochs() uint64 {
	if e.opts.Parallel {
		return e.parBarrier.epochs.Load()
	}
	return e.barrierEpochs.Load()
}

// barrier is a reusable counting barrier for parallel mode.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	epoch  uint64
	broken bool
	epochs atomic.Uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic("exec: barrier broken by peer panic")
	}
	epoch := b.epoch
	b.count++
	if b.count == b.n {
		b.count = 0
		b.epoch++
		b.epochs.Add(1)
		b.cond.Broadcast()
		return
	}
	for b.epoch == epoch && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		panic("exec: barrier broken by peer panic")
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
