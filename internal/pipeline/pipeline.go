// Package pipeline is the sharded parallel analysis engine: the scale-out
// successor to the single serial detect.Detector funnel.
//
// The paper's in-thread analysis (§V-A2) rejects the original DiscoPoP's
// analysis queue because "the queue size may increase dramatically if there
// is burst in accessing memory" — internal/detect.Queued reproduces exactly
// that failure mode. The modern fix (cf. PROMPT, arXiv:2311.03263) is to
// parallelize the analysis itself: hash each access address to one of K
// shards, give every shard a private partition of signature memory, private
// matrix accumulators, and a dedicated worker goroutine fed by a *bounded*
// ring-buffer queue, then merge the shard results at close.
//
// Sharding is correct because Algorithm 1's detection rule is purely
// per-address: the communicating-access decision for address a depends only
// on the temporally ordered sequence of accesses to a. Routing by address
// keeps every address's whole history on one shard, whose FIFO queue
// preserves arrival order, so an exact backend (sig.Perfect) produces
// bit-identical matrices to the serial detector. The approximate asymmetric
// signature couples addresses through slot collisions; partitioning its slot
// budget across shards keeps the expected collision rate (and Eq. 2 memory)
// unchanged but changes *which* collisions occur, so results match the
// serial analyser exactly whenever the run is collision-free and
// statistically otherwise.
//
// Queues are bounded, so analysis memory stays fixed no matter how bursty
// the producers are. Overload is governed by a policy: PolicyBlock (default)
// applies backpressure, PolicyDegrade thins reads through the same
// burst/period gate as detect.Sampler while a queue is saturated (writes are
// never dropped — losing a write corrupts last-writer attribution rather
// than merely losing volume), and PolicyAuto starts exhaustive and switches
// to degrade mode only while the stall rate shows sustained overload.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/murmur"
	"commprof/internal/obs"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// OverloadPolicy selects what happens to producers when a shard queue fills.
type OverloadPolicy int

const (
	// PolicyBlock applies backpressure: a producer blocks until the shard
	// worker drains below capacity. Analysis is exhaustive; producer speed
	// follows the slowest shard.
	PolicyBlock OverloadPolicy = iota
	// PolicyDegrade degrades to read sampling under overload: while a shard
	// queue is saturated, reads pass through a detect.Gate and only the
	// admitted burst fraction is enqueued; the rest are dropped and counted.
	// Writes always enqueue (blocking if necessary).
	PolicyDegrade
	// PolicyAuto adapts between the two: it behaves like PolicyBlock until
	// producer stall episodes exceed AutoStallPerSec within a sampling
	// window, then degrades like PolicyDegrade until every shard queue has
	// drained, at which point it restores exhaustive analysis. Each mode
	// switch is counted (Report/obs expose it), so a run that never
	// overloads pays nothing and loses nothing.
	PolicyAuto
)

// String names the policy for reports.
func (p OverloadPolicy) String() string {
	switch p {
	case PolicyDegrade:
		return "degrade"
	case PolicyAuto:
		return "auto"
	}
	return "block"
}

// autoWindow is PolicyAuto's stall-rate sampling window: long enough to
// ignore an isolated burst, short enough to react within a fraction of a
// second of sustained overload.
const autoWindow = 200 * time.Millisecond

// shardSeed routes addresses to shards with a hash independent of both
// signature slot hashes, so shard skew does not correlate with slot
// collisions.
const shardSeed uint64 = 0xA0761D6478BD642F

// Options configures a sharded analysis engine.
type Options struct {
	// Shards is the number of analysis shards K (default GOMAXPROCS).
	Shards int
	// Threads is the target program's thread count (matrix dimension).
	Threads int
	// Table is the static region table; nil disables per-region attribution.
	Table *trace.Table
	// GranularityBits coarsens analysis granularity exactly as in
	// detect.Options; the shard route hashes the *coarsened* address so one
	// granule never splits across shards.
	GranularityBits uint
	// QueueCapacity bounds each shard's queue in accesses (default 8192).
	QueueCapacity int
	// BatchSize is the producer-side staging batch of ProcessStream and the
	// worker-side drain limit (default 256). Larger batches amortize queue
	// locking; smaller ones reduce detection latency.
	BatchSize int
	// Policy selects the overload behaviour (default PolicyBlock).
	Policy OverloadPolicy
	// DegradeBurst/DegradePeriod configure the read gate PolicyDegrade uses
	// always and PolicyAuto uses while degraded (default 1 of every 8 reads
	// admitted while saturated).
	DegradeBurst, DegradePeriod uint32
	// AutoStallPerSec is PolicyAuto's trip threshold: sustained enqueue
	// stalls per second that flip the engine into degrade mode (default 50).
	// Ignored by the other policies.
	AutoStallPerSec float64
	// RedundancyCacheBits, when non-zero, gives every shard worker a private
	// 2^bits-entry redundancy-filtering cache in front of its signature
	// partition (see internal/redundancy). Per-shard privacy makes the
	// not-goroutine-safe cache sound here: address routing sends a granule's
	// whole history through one worker, which therefore observes every
	// cross-thread write that must invalidate a cached entry.
	RedundancyCacheBits uint
	// NewBackend builds shard s's private signature partition; required.
	// Use AsymmetricFactory to split one slot budget across shards, or
	// PerfectFactory for exact ground-truth analysis.
	NewBackend func(shard int) (sig.Backend, error)
	// Accuracy, when non-nil, gives every shard worker a private
	// shadow-sampling accuracy monitor (see internal/accuracy) built from
	// these options; Engine.AccuracyStats merges them. Per-shard privacy is
	// sound for the same reason the redundancy caches are: address routing
	// sends a sampled granule's whole history through one worker, so each
	// monitor's verdict pairs stay aligned, and the sample slice and shard
	// partition are independent hashes of the same coarsened address.
	Accuracy *accuracy.Options
	// OnEvent, when non-nil, receives every detected dependence. Shard
	// workers call it concurrently; it must be safe for concurrent use.
	OnEvent func(detect.Event)
	// PhaseWindow, when non-zero, makes every shard accumulate time-windowed
	// communication sub-matrices bucketed by the global access index carried
	// on each event (window = Time / PhaseWindow). Bucketing by the trace's
	// own global order means shard workers need no extra synchronization, and
	// the per-shard partials merge at window close by commutative summation —
	// the same soundness argument as the shard-partition merge — so the
	// merged windowed results are bit-identical to a serial
	// metrics.PhaseSegmenter on exact backends.
	PhaseWindow uint64
	// OnWindowClose, when non-nil, receives every completed window exactly
	// once, in increasing start order, from AdvancePhases and Close. Called
	// with the closer serialized, so it need not be safe for concurrent use
	// with itself (but runs on whichever goroutine advances).
	OnWindowClose func(w *comm.Window, end uint64)
	// PhaseProbes, when non-nil, receives late-window counts (see
	// obs.PhaseProbes.LateWindows). Window-close and transition counters are
	// the OnWindowClose consumer's business.
	PhaseProbes *obs.PhaseProbes
	// Probes, when non-nil, receives self-observability telemetry. Nil keeps
	// the hot path uninstrumented.
	Probes *obs.PipelineProbes
	// DetectProbes, when non-nil, is handed to every shard's private detector
	// (event counts, stale-writer drops, redundancy skips). All obs counters
	// are atomic, so one bundle is safely shared across shard workers.
	DetectProbes *obs.DetectProbes
	// Stages, when non-nil, receives per-batch stage latency observations:
	// producer blocking on a full queue (QueueWait), the worker drain cycle
	// (Drain, with BatchService and Window as timed sub-stages), and the
	// periodic window advance. Timing is per batch — a handful of
	// monotonic-clock reads per few hundred accesses — never per access.
	Stages *obs.StageProbes
	// Overhead, when non-nil, is handed to every shard's private detector to
	// enable the sampled signature/redundancy/shadow overhead split (see
	// detect.Options.Overhead).
	Overhead *obs.OverheadProbes
	// Timeline, when non-nil, records execution-timeline events: one track
	// per shard worker (busy-period spans), one per producer (flush spans),
	// and an "engine" track carrying policy-transition and sampled
	// degrade-drop instants. Nil keeps the hot path free of timeline work
	// beyond one nil check per drain/flush.
	Timeline *obs.Timeline
}

func (o *Options) setDefaults() error {
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Shards < 1 {
		return fmt.Errorf("pipeline: Shards must be positive, got %d", o.Shards)
	}
	if o.Threads <= 0 {
		return fmt.Errorf("pipeline: Threads must be positive, got %d", o.Threads)
	}
	if o.NewBackend == nil {
		return fmt.Errorf("pipeline: NewBackend is required")
	}
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 8192
	}
	if o.QueueCapacity < 1 {
		return fmt.Errorf("pipeline: QueueCapacity must be positive, got %d", o.QueueCapacity)
	}
	if o.BatchSize == 0 {
		o.BatchSize = 256
	}
	if o.BatchSize < 1 {
		return fmt.Errorf("pipeline: BatchSize must be positive, got %d", o.BatchSize)
	}
	if o.BatchSize > o.QueueCapacity {
		o.BatchSize = o.QueueCapacity
	}
	if o.DegradeBurst == 0 && o.DegradePeriod == 0 {
		o.DegradeBurst, o.DegradePeriod = 1, 8
	}
	if o.Policy == PolicyDegrade || o.Policy == PolicyAuto {
		if o.DegradeBurst == 0 || o.DegradePeriod == 0 || o.DegradeBurst > o.DegradePeriod {
			return fmt.Errorf("pipeline: invalid degrade rate %d/%d (need 1 <= burst <= period)",
				o.DegradeBurst, o.DegradePeriod)
		}
	}
	if o.AutoStallPerSec == 0 {
		o.AutoStallPerSec = 50
	}
	if o.AutoStallPerSec < 0 {
		return fmt.Errorf("pipeline: AutoStallPerSec must be positive, got %v", o.AutoStallPerSec)
	}
	return nil
}

// AsymmetricFactory returns a NewBackend that partitions a total asymmetric
// signature budget evenly across shards: each shard gets ceil(slots/K) slots,
// so total signature memory matches a serial analyser with the full budget
// (Eq. 2 is linear in n).
func AsymmetricFactory(totalSlots uint64, shards, threads int, fpRate float64, probes *obs.SigProbes) func(int) (sig.Backend, error) {
	perShard := (totalSlots + uint64(shards) - 1) / uint64(shards)
	return func(int) (sig.Backend, error) {
		return sig.NewAsymmetric(sig.Options{
			Slots: perShard, Threads: threads, FPRate: fpRate, Probes: probes,
		})
	}
}

// PerfectFactory returns a NewBackend producing collision-free partitions:
// the configuration under which sharded analysis is bit-identical to the
// serial detector.
func PerfectFactory(threads int) func(int) (sig.Backend, error) {
	return func(int) (sig.Backend, error) { return sig.NewPerfect(threads), nil }
}

// shard owns one address partition: a bounded ring queue, a worker, a
// private detector and a private signature partition.
type shard struct {
	d       *detect.Detector
	backend sig.Backend
	eng     *Engine // owning engine, for PolicyAuto's stall/restore hooks
	stages  *obs.StageProbes
	track   *obs.Track // worker timeline track; nil when the timeline is off

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	ring     []trace.Access
	head, n  int
	closed   bool
	peak     int

	// depth mirrors n atomically for lock-free saturation checks and gauges.
	depth     atomic.Int64
	processed atomic.Uint64

	// windows accumulates this shard's time-windowed sub-matrices (nil when
	// Options.PhaseWindow is 0); maxTime is the largest access time the
	// worker has finished processing, the shard's contribution to the
	// window-close frontier. evbuf stages detected events between worker
	// drains — written only from the detector's OnEvent on the worker
	// goroutine, flushed into windows once per batch so the windowed layer
	// costs one lock per drain, not one per event.
	windows *comm.WindowSet
	evbuf   []comm.WindowEvent
	maxTime atomic.Uint64
}

func (s *shard) capacity() int { return len(s.ring) }

// Depth reports the current queue depth; safe while the run is in flight.
func (s *shard) Depth() int { return int(s.depth.Load()) }

// enqueue appends items to the ring in order, blocking while full. Returns
// the recorded peak on the way out so producers never re-lock for it.
func (s *shard) enqueue(items []trace.Access, p *obs.PipelineProbes) {
	for len(items) > 0 {
		s.mu.Lock()
		if s.n == len(s.ring) && !s.closed {
			if p != nil {
				p.EnqueueStalls.Inc()
			}
			// Already off the fast path (the producer is about to sleep), so
			// the auto-policy bookkeeping mutex and the stall clock reads cost
			// nothing that matters.
			s.eng.noteStall()
			var t0 time.Time
			if s.stages != nil {
				t0 = time.Now()
			}
			for s.n == len(s.ring) && !s.closed {
				s.notFull.Wait()
			}
			if s.stages != nil {
				s.stages.QueueWait.Observe(uint64(time.Since(t0)))
			}
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		k := len(s.ring) - s.n
		if k > len(items) {
			k = len(items)
		}
		for i := 0; i < k; i++ {
			s.ring[(s.head+s.n+i)%len(s.ring)] = items[i]
		}
		s.n += k
		if s.n > s.peak {
			s.peak = s.n
		}
		s.depth.Add(int64(k))
		s.mu.Unlock()
		s.notEmpty.Signal()
		items = items[k:]
		if p != nil {
			p.Enqueued.Add(uint64(k))
		}
	}
}

// worker drains the ring in batches and runs Algorithm 1 on its partition.
// The goroutine runs under a runtime/pprof "shard=<idx>" label so CPU
// profiles pulled from the -pprof endpoint attribute samples per shard.
func (s *shard) worker(idx, batch int, p *obs.PipelineProbes, wg *sync.WaitGroup) {
	defer wg.Done()
	pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(idx)), func(context.Context) {
		s.drainLoop(batch, p)
	})
	// The worker owns its signature partition: publish the final state for
	// live readers before going quiescent.
	if a, ok := s.backend.(*sig.Asymmetric); ok {
		a.Publish()
	}
}

// drainLoop is the worker body. Timeline spans are busy periods — one span
// from the first drained batch after an idle wait until the queue next runs
// dry — so a saturated run records a handful of spans, not one per batch.
// Stage timing is per drained batch: at most four monotonic-clock reads per
// BatchSize accesses.
func (s *shard) drainLoop(batch int, p *obs.PipelineProbes) {
	scratch := make([]trace.Access, batch)
	st := s.stages
	busy := false
	for {
		s.mu.Lock()
		if busy && s.n == 0 && !s.closed {
			// Going idle: close the busy span before sleeping.
			busy = false
			s.track.End("busy")
		}
		for s.n == 0 && !s.closed {
			s.notEmpty.Wait()
		}
		if s.n == 0 && s.closed {
			s.mu.Unlock()
			if busy {
				s.track.End("busy")
			}
			return
		}
		if s.track != nil && !busy {
			busy = true
			s.track.Begin("busy")
		}
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		k := s.n
		if k > len(scratch) {
			k = len(scratch)
		}
		if p != nil {
			p.QueueDepth.Observe(uint64(s.n))
		}
		for i := 0; i < k; i++ {
			scratch[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.head = (s.head + k) % len(s.ring)
		s.n -= k
		s.depth.Add(int64(-k))
		s.mu.Unlock()
		// Broadcast, not Signal: several producers may block on one shard in
		// parallel engine mode and k freed slots can admit all of them.
		s.notFull.Broadcast()
		var t1 time.Time
		if st != nil {
			t1 = time.Now()
		}
		s.d.ProcessBatch(scratch[:k])
		var t2 time.Time
		if st != nil {
			t2 = time.Now()
			st.BatchService.Observe(uint64(t2.Sub(t1)))
		}
		s.processed.Add(uint64(k))
		if s.windows != nil {
			if len(s.evbuf) > 0 {
				s.windows.ObserveBatch(s.evbuf)
				s.evbuf = s.evbuf[:0]
			}
			// Advance this shard's window-close frontier to the largest access
			// time now fully processed. Deterministic and replay feeds arrive
			// time-ordered per shard, so every future event on this shard has a
			// strictly larger time; the engine frontier is the min across
			// shards.
			var max uint64
			for i := 0; i < k; i++ {
				if scratch[i].Time > max {
					max = scratch[i].Time
				}
			}
			for {
				cur := s.maxTime.Load()
				if max <= cur || s.maxTime.CompareAndSwap(cur, max) {
					break
				}
			}
		}
		if st != nil {
			t3 := time.Now()
			if s.windows != nil {
				st.Window.Observe(uint64(t3.Sub(t2)))
			}
			st.Drain.Observe(uint64(t3.Sub(t0)))
		}
		if p != nil {
			p.BatchSizes.Observe(uint64(k))
		}
		s.eng.maybeRestore()
	}
}

// Engine is the sharded analysis pipeline. Enqueue accesses with Process /
// Probe (any number of concurrent producers) or ProcessStream (one producer,
// batched), then Close before reading merged results.
type Engine struct {
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	gate    *detect.Gate
	dropped atomic.Uint64

	// track is the engine-level timeline row: policy-transition instants and
	// sampled degrade-drop instants land here (nil when the timeline is off).
	track *obs.Track

	// monitors holds each shard's private accuracy monitor (empty when
	// Options.Accuracy is nil); accAlarm is the engine-level warn-once latch
	// evaluated against the merged estimate.
	monitors []*accuracy.Monitor
	accAlarm accuracy.Alarm

	// phaseCloser merges shard window partials and emits completed windows
	// (nil when Options.PhaseWindow is 0).
	phaseCloser *comm.WindowCloser

	// PolicyAuto state: degraded mirrors the current mode, transitions counts
	// mode switches in both directions, and the mutex guards the stall-rate
	// sampling window (touched only on the already-slow stall path).
	degraded    atomic.Bool
	transitions atomic.Uint64
	autoMu      sync.Mutex
	winStart    time.Time
	winStalls   int

	prodMu    sync.Mutex
	producers []*Producer

	closeOnce sync.Once
	closed    atomic.Bool

	mergeOnce sync.Once
	global    *comm.Matrix
	outside   *comm.Matrix
	perRegion []*comm.Matrix
	regionAcc []uint64
}

// New builds the engine and starts one worker goroutine per shard.
func New(opts Options) (*Engine, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.Table != nil {
		if err := opts.Table.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	e := &Engine{opts: opts, shards: make([]*shard, opts.Shards)}
	if opts.Timeline != nil {
		e.track = opts.Timeline.Track("engine")
	}
	if opts.PhaseWindow > 0 {
		closer, err := comm.NewWindowCloser(opts.Threads, opts.PhaseWindow)
		if err != nil {
			return nil, err
		}
		e.phaseCloser = closer
	}
	if opts.Policy == PolicyDegrade || opts.Policy == PolicyAuto {
		gate, err := detect.NewGate(opts.Threads, opts.DegradeBurst, opts.DegradePeriod)
		if err != nil {
			return nil, err
		}
		e.gate = gate
	}
	for i := range e.shards {
		backend, err := opts.NewBackend(i)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d backend: %w", i, err)
		}
		var mon *accuracy.Monitor
		if opts.Accuracy != nil {
			mon, err = accuracy.New(*opts.Accuracy)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
			}
			e.monitors = append(e.monitors, mon)
		}
		s := &shard{backend: backend, eng: e, ring: make([]trace.Access, opts.QueueCapacity), stages: opts.Stages}
		if opts.Timeline != nil {
			s.track = opts.Timeline.Track("shard-" + strconv.Itoa(i))
		}
		onEvent := opts.OnEvent
		if opts.PhaseWindow > 0 {
			s.windows, err = comm.NewWindowSet(opts.Threads, opts.PhaseWindow)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
			}
			user := opts.OnEvent
			onEvent = func(ev detect.Event) {
				// Worker-goroutine only: stage lock-free, flush per drain.
				s.evbuf = append(s.evbuf, comm.WindowEvent{
					Time: ev.Time, Region: ev.Region,
					Src: ev.Writer, Dst: ev.Reader, Bytes: uint64(ev.Bytes),
				})
				if user != nil {
					user(ev)
				}
			}
		}
		d, err := detect.New(detect.Options{
			Threads: opts.Threads, Backend: backend, Table: opts.Table,
			GranularityBits: opts.GranularityBits, OnEvent: onEvent,
			RedundancyCacheBits: opts.RedundancyCacheBits,
			Accuracy:            mon,
			Probes:              opts.DetectProbes,
			Overhead:            opts.Overhead,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		s.d = d
		s.notEmpty.L = &s.mu
		s.notFull.L = &s.mu
		e.shards[i] = s
	}
	for i, s := range e.shards {
		e.wg.Add(1)
		go s.worker(i, e.opts.BatchSize, e.opts.Probes, &e.wg)
	}
	return e, nil
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// route maps an access to its shard index by hashing the
// granularity-coarsened address, so every address's full history lands on one
// FIFO queue.
func (e *Engine) route(addr uint64) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(murmur.HashAddr(addr>>e.opts.GranularityBits, shardSeed) % uint64(len(e.shards)))
}

// thinReads reports whether the degrade gate applies right now: always under
// PolicyDegrade, only while tripped into degraded mode under PolicyAuto.
func (e *Engine) thinReads() bool {
	if e.gate == nil {
		return false
	}
	return e.opts.Policy != PolicyAuto || e.degraded.Load()
}

// noteStall feeds PolicyAuto's stall-rate sampler. Producers call it when
// they are about to block on a full shard queue; once stalls within the
// sampling window exceed AutoStallPerSec, the engine trips into degrade mode.
func (e *Engine) noteStall() {
	if e.opts.Policy != PolicyAuto || e.degraded.Load() {
		return
	}
	e.autoMu.Lock()
	defer e.autoMu.Unlock()
	if e.degraded.Load() {
		return
	}
	now := time.Now()
	if e.winStart.IsZero() || now.Sub(e.winStart) > autoWindow {
		e.winStart, e.winStalls = now, 0
	}
	e.winStalls++
	trip := int(e.opts.AutoStallPerSec * autoWindow.Seconds())
	if trip < 1 {
		trip = 1
	}
	if e.winStalls >= trip {
		e.degraded.Store(true)
		e.transitions.Add(1)
		if p := e.opts.Probes; p != nil {
			p.PolicyTransitions.Inc()
		}
		e.track.Instant("policy-degrade")
		e.winStart, e.winStalls = time.Time{}, 0
	}
}

// maybeRestore flips a degraded PolicyAuto engine back to exhaustive analysis
// once every shard queue has drained. Workers call it after each batch; the
// check is one atomic load when not degraded.
func (e *Engine) maybeRestore() {
	if e.opts.Policy != PolicyAuto || !e.degraded.Load() {
		return
	}
	for _, s := range e.shards {
		if s.depth.Load() > 0 {
			return
		}
	}
	if e.degraded.CompareAndSwap(true, false) {
		e.transitions.Add(1)
		if p := e.opts.Probes; p != nil {
			p.PolicyTransitions.Inc()
		}
		e.track.Instant("policy-restore")
	}
}

// Degraded reports whether a PolicyAuto engine is currently in degrade mode
// (always false for the static policies); safe while the run is in flight.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// PolicyTransitions counts PolicyAuto mode switches in both directions; safe
// while the run is in flight.
func (e *Engine) PolicyTransitions() uint64 { return e.transitions.Load() }

// Process enqueues one access. Safe for concurrent producers; accesses from
// different producers interleave in arrival order, exactly like the serial
// detector in parallel engine mode.
func (e *Engine) Process(a trace.Access) {
	s := e.shards[e.route(a.Addr)]
	if a.Kind == trace.Read && s.depth.Load() >= int64(s.capacity()) && e.thinReads() {
		if !e.gate.Admit(a.Thread) {
			e.noteDrop()
			return
		}
	}
	s.enqueue([]trace.Access{a}, e.opts.Probes)
}

// dropInstantEvery subsamples degrade-drop timeline instants: drops arrive in
// bursts of thousands while a queue is saturated, so the timeline marks the
// first drop of each power-of-two stride rather than every one.
const dropInstantEvery = 4096

// noteDrop counts one degraded read drop and, with a timeline attached,
// emits a sampled drop instant on the engine track.
func (e *Engine) noteDrop() {
	n := e.dropped.Add(1)
	if p := e.opts.Probes; p != nil {
		p.DroppedReads.Inc()
	}
	if e.track != nil && n&(dropInstantEvery-1) == 1 {
		e.track.Instant("degrade-drop")
	}
}

// Probe adapts the engine to the executor's instrumentation hook.
func (e *Engine) Probe() exec.Probe {
	return func(a trace.Access) { e.Process(a) }
}

// Producer is a per-producer staging handle in front of the shard queues:
// accesses accumulate in private per-shard buffers and are enqueued as whole
// batches, amortising queue locking across BatchSize accesses the way
// ProcessStream always did for replay. A Producer is not safe for concurrent
// use — give each producing goroutine its own (its buffers are private, so
// parallel producers never contend on staging). Call Flush before Close to
// push out any staged remainder.
//
// Staged accesses are invisible to shard workers until a flush, so a
// producer's resident footprint is at most Shards×BatchSize accesses and the
// detection latency of a staged access is bounded by its buffer's fill time
// plus the configured flush triggers.
type Producer struct {
	e       *Engine
	pending [][]trace.Access
	staged  int

	// flushOnThreadSwitch flushes all staged batches whenever the producing
	// thread changes between consecutive accesses. The deterministic
	// scheduler interleaves threads only at quantum boundaries, so this is
	// the quantum-switch trigger: it preserves the exact global arrival
	// order across threads (thread A's staged accesses reach the queues
	// before thread B's first enqueue), keeping single-producer staging
	// order-exact even when one handle carries every thread's accesses.
	flushOnThreadSwitch bool
	lastThread          int32
	hasLast             bool

	// peak/flushes are written only by the owning goroutine but read by
	// concurrent stats snapshots, hence atomics.
	peak    atomic.Int64
	flushes atomic.Uint64

	// track is this producer's timeline row; flush spans land here (nil when
	// the timeline is off).
	track *obs.Track
}

// NewProducer returns a staging handle for one producing goroutine.
// flushOnThreadSwitch selects the deterministic-scheduler mode described on
// Producer; leave it false when every access the handle sees comes from one
// thread (parallel engine mode) or when stream order alone fixes per-shard
// order (single-producer replay).
func (e *Engine) NewProducer(flushOnThreadSwitch bool) *Producer {
	p := &Producer{
		e:                   e,
		pending:             make([][]trace.Access, len(e.shards)),
		flushOnThreadSwitch: flushOnThreadSwitch,
	}
	for i := range p.pending {
		p.pending[i] = make([]trace.Access, 0, e.opts.BatchSize)
	}
	e.prodMu.Lock()
	if e.opts.Timeline != nil {
		p.track = e.opts.Timeline.Track("producer-" + strconv.Itoa(len(e.producers)))
	}
	e.producers = append(e.producers, p)
	e.prodMu.Unlock()
	return p
}

// Process stages one access, flushing the target shard's batch when it
// reaches BatchSize (and, in flushOnThreadSwitch mode, flushing everything
// staged when the producing thread changes).
func (p *Producer) Process(a trace.Access) {
	if p.flushOnThreadSwitch {
		if p.hasLast && a.Thread != p.lastThread && p.staged > 0 {
			p.Flush()
		}
		p.lastThread = a.Thread
		p.hasLast = true
	}
	e := p.e
	i := e.route(a.Addr)
	s := e.shards[i]
	if a.Kind == trace.Read && s.depth.Load() >= int64(s.capacity()) && e.thinReads() {
		if !e.gate.Admit(a.Thread) {
			e.noteDrop()
			return
		}
	}
	p.pending[i] = append(p.pending[i], a)
	p.staged++
	if int64(p.staged) > p.peak.Load() {
		p.peak.Store(int64(p.staged))
	}
	if len(p.pending[i]) == e.opts.BatchSize {
		p.track.Begin("flush")
		s.enqueue(p.pending[i], e.opts.Probes)
		p.track.End("flush")
		p.pending[i] = p.pending[i][:0]
		p.staged -= e.opts.BatchSize
		p.noteFlush()
	}
}

// ProcessBatch stages a run of accesses — the natural feed from
// trace.Decoder.NextBatch, pairing the codec's block-at-a-time decode with
// the producer's per-shard staging. Semantically identical to calling
// Process on each element.
func (p *Producer) ProcessBatch(batch []trace.Access) {
	for _, a := range batch {
		p.Process(a)
	}
}

// Flush enqueues every staged batch. Call it when the producer is done (or
// at any ordering boundary); staged accesses are otherwise invisible to the
// shard workers.
func (p *Producer) Flush() {
	withSpan := p.track != nil && p.staged > 0
	if withSpan {
		p.track.Begin("flush")
	}
	flushed := false
	for i, batch := range p.pending {
		if len(batch) > 0 {
			p.e.shards[i].enqueue(batch, p.e.opts.Probes)
			p.pending[i] = p.pending[i][:0]
			flushed = true
		}
	}
	p.staged = 0
	if flushed {
		p.noteFlush()
	}
	if withSpan {
		p.track.End("flush")
	}
}

func (p *Producer) noteFlush() {
	p.flushes.Add(1)
	if pr := p.e.opts.Probes; pr != nil {
		pr.ProducerFlushes.Inc()
	}
}

// ProcessStream feeds a recorded access stream through the pipeline with
// per-shard batching. Single producer only: concurrent callers would
// interleave their staging batches and break per-address order. Per-shard
// order equals stream order, so results are deterministic for a fixed stream
// and shard count.
func (e *Engine) ProcessStream(accesses []trace.Access) {
	p := e.NewProducer(false)
	for _, a := range accesses {
		p.Process(a)
	}
	p.Flush()
}

// Close drains every shard queue, stops the workers and merges shard results.
// Idempotent; call it before reading Global, Tree or Stats.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			s.notEmpty.Broadcast()
			s.notFull.Broadcast()
		}
		e.wg.Wait()
		// Workers are quiescent: flush every remaining window partial and
		// emit the tail of the live window stream.
		e.advancePhasesAt(^uint64(0))
		e.closed.Store(true)
	})
}

// phaseFrontier is the largest logical time no in-flight access can precede:
// the minimum over all shards of the largest fully-processed access time. A
// shard that has processed nothing holds the frontier at 0, so nothing is
// emitted until every shard has made progress — late emission is impossible
// in deterministic and replay feeds, whose per-shard arrival order is time
// order.
func (e *Engine) phaseFrontier() uint64 {
	frontier := ^uint64(0)
	for _, s := range e.shards {
		if t := s.maxTime.Load(); t < frontier {
			frontier = t
		}
	}
	return frontier
}

// advancePhasesAt drains shard window partials below the frontier, merges
// them, and emits newly completed windows to Options.OnWindowClose in start
// order. Returns the number of windows emitted; 0 when phases are off.
func (e *Engine) advancePhasesAt(frontier uint64) int {
	if e.phaseCloser == nil {
		return 0
	}
	var t0 time.Time
	if e.opts.Stages != nil {
		t0 = time.Now()
	}
	sources := make([]*comm.WindowSet, len(e.shards))
	for i, s := range e.shards {
		sources[i] = s.windows
	}
	lateBefore := e.phaseCloser.Late()
	n := e.phaseCloser.Advance(frontier, sources, e.opts.OnWindowClose)
	if p := e.opts.PhaseProbes; p != nil {
		if d := e.phaseCloser.Late() - lateBefore; d > 0 {
			p.LateWindows.Add(d)
		}
	}
	if e.opts.Stages != nil {
		e.opts.Stages.Window.Observe(uint64(time.Since(t0)))
	}
	return n
}

// AdvancePhases closes every communication window now wholly below the
// engine's frontier, emitting each exactly once, in start order, to
// Options.OnWindowClose. The live observability sampler drives this
// periodically; Close runs a final exhaustive advance. Safe from any
// goroutine while the run is in flight; a no-op when PhaseWindow is 0.
//
// In parallel engine mode, clock stamping and enqueueing are not jointly
// atomic, so a shard's arrival order is not strictly time-ordered and a
// window partial can surface after its window was emitted. Such partials are
// merged (the final PhaseWindows set is always complete and exact) but not
// re-emitted, and are counted by PhaseLateWindows / the LateWindows probe.
func (e *Engine) AdvancePhases() int {
	return e.advancePhasesAt(e.phaseFrontier())
}

// PhaseWindows returns the complete merged set of time-windowed
// communication sub-matrices. It errors until Close, or when the engine was
// built without PhaseWindow.
func (e *Engine) PhaseWindows() (*comm.WindowSet, error) {
	if e.phaseCloser == nil {
		return nil, fmt.Errorf("pipeline: PhaseWindow not configured")
	}
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: PhaseWindows before Close")
	}
	return e.phaseCloser.Done(), nil
}

// PhaseWindowsClosed counts windows emitted so far; safe while the run is in
// flight (0 when phases are off).
func (e *Engine) PhaseWindowsClosed() uint64 {
	if e.phaseCloser == nil {
		return 0
	}
	return e.phaseCloser.Closed()
}

// PhaseLateWindows counts shard window partials that surfaced after their
// window was emitted live; always 0 in deterministic and replay feeds.
func (e *Engine) PhaseLateWindows() uint64 {
	if e.phaseCloser == nil {
		return 0
	}
	return e.phaseCloser.Late()
}

// merge sums the shard matrices and counters into the standard global /
// outside / per-region form. Runs once, after Close.
func (e *Engine) merge() {
	e.mergeOnce.Do(func() {
		n := e.opts.Threads
		e.global = comm.NewMatrix(n)
		e.outside = comm.NewMatrix(n)
		for _, s := range e.shards {
			e.global.AddMatrix(s.d.Global())
			e.outside.AddMatrix(s.d.Outside())
		}
		if e.opts.Table != nil {
			e.perRegion = make([]*comm.Matrix, e.opts.Table.Len())
			e.regionAcc = make([]uint64, e.opts.Table.Len())
			for i := range e.perRegion {
				m := comm.NewMatrix(n)
				for _, s := range e.shards {
					sm, err := s.d.RegionMatrix(int32(i))
					if err == nil {
						m.AddMatrix(sm)
					}
				}
				e.perRegion[i] = m
			}
			for _, s := range e.shards {
				for i, v := range s.d.RegionAccesses() {
					e.regionAcc[i] += v
				}
			}
		}
	})
}

// Global returns the merged whole-program communication matrix. It errors
// until Close has drained the pipeline.
func (e *Engine) Global() (*comm.Matrix, error) {
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: Global before Close")
	}
	e.merge()
	return e.global, nil
}

// Tree builds the merged nested communication structure — the same
// comm.Tree a serial detector produces. It errors until Close, or when the
// engine was built without a region table.
func (e *Engine) Tree() (*comm.Tree, error) {
	if !e.closed.Load() {
		return nil, fmt.Errorf("pipeline: Tree before Close")
	}
	if e.opts.Table == nil {
		return nil, fmt.Errorf("pipeline: no region table configured")
	}
	e.merge()
	return comm.BuildTree(e.opts.Table, e.perRegion, e.regionAcc, e.global, e.outside)
}

// Stats aggregates the engine's work across shards.
type Stats struct {
	Processed    uint64 // accesses analysed by shard workers
	Detected     uint64 // inter-thread RAW dependencies found
	CommBytes    uint64 // total communicated bytes
	DroppedReads uint64 // reads discarded by PolicyDegrade under saturation
}

// Stats returns aggregate counters; safe while the run is in flight.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shards {
		ds := s.d.Stats()
		st.Processed += ds.Processed
		st.Detected += ds.Detected
		st.CommBytes += ds.CommBytes
	}
	st.DroppedReads = e.dropped.Load()
	return st
}

// ShardStat describes one shard's queue and work.
type ShardStat struct {
	Processed uint64 // accesses this shard analysed
	Depth     int    // current queue depth
	PeakDepth int    // maximum queue depth observed
}

// ShardStats returns per-shard statistics; safe while the run is in flight.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		peak := s.peak
		s.mu.Unlock()
		out[i] = ShardStat{Processed: s.processed.Load(), Depth: s.Depth(), PeakDepth: peak}
	}
	return out
}

// ShardDepth reports shard i's current queue depth — the live gauge source.
func (e *Engine) ShardDepth(i int) int { return e.shards[i].Depth() }

// ProducerFlushes sums staging-buffer flushes across all producers; safe
// while the run is in flight.
func (e *Engine) ProducerFlushes() uint64 {
	e.prodMu.Lock()
	defer e.prodMu.Unlock()
	var total uint64
	for _, p := range e.producers {
		total += p.flushes.Load()
	}
	return total
}

// PeakResidentAccesses bounds the engine's in-flight access residency: the
// sum of every shard's peak queue depth plus every producer's peak staging
// occupancy. This is the O(queue depth + staging) quantity streaming replay
// holds resident instead of the whole trace (worker drain scratch adds at
// most Shards×BatchSize on top). Safe while the run is in flight.
func (e *Engine) PeakResidentAccesses() int {
	total := 0
	for _, s := range e.shards {
		s.mu.Lock()
		total += s.peak
		s.mu.Unlock()
	}
	e.prodMu.Lock()
	for _, p := range e.producers {
		total += int(p.peak.Load())
	}
	e.prodMu.Unlock()
	return total
}

// BatchSize reports the configured producer staging / worker drain batch.
func (e *Engine) BatchSize() int { return e.opts.BatchSize }

// QueueCapacity reports the per-shard bound.
func (e *Engine) QueueCapacity() int { return e.opts.QueueCapacity }

// Policy reports the configured overload policy.
func (e *Engine) Policy() OverloadPolicy { return e.opts.Policy }

// RedundancyStats merges every shard cache's fast-path counters. The second
// return is false when RedundancyCacheBits was 0. Safe while the run is in
// flight (the snapshot is racy across shards, exact after Close).
func (e *Engine) RedundancyStats() (redundancy.Stats, bool) {
	var agg redundancy.Stats
	on := false
	for _, s := range e.shards {
		if st, ok := s.d.RedundancyStats(); ok {
			agg = agg.Add(st)
			on = true
		}
	}
	return agg, on
}

// AccuracyStats merges every shard monitor's paired-verdict counters. The
// second return is false when Options.Accuracy was nil. Safe while the run
// is in flight (the snapshot is racy across shards, exact after Close).
func (e *Engine) AccuracyStats() (accuracy.Stats, bool) {
	if len(e.monitors) == 0 {
		return accuracy.Stats{}, false
	}
	var agg accuracy.Stats
	for _, m := range e.monitors {
		agg = agg.Add(m.Stats())
	}
	return agg, true
}

// AccuracyEstimate derives the engine-wide FPR estimate from the merged
// per-shard stats. The second return is false when Options.Accuracy was nil.
func (e *Engine) AccuracyEstimate() (accuracy.Estimate, bool) {
	st, ok := e.AccuracyStats()
	if !ok {
		return accuracy.Estimate{}, false
	}
	return accuracy.EstimateFrom(st, e.opts.Accuracy.SampleBits, e.opts.Accuracy.TargetFPR), true
}

// EvaluateAccuracy runs the engine's warn-once saturation alarm against the
// merged estimate and the given production fill ratio (LiveFillRatio while
// the run is in flight, FillRatio after Close). A no-op without monitors;
// safe from any goroutine.
func (e *Engine) EvaluateAccuracy(fillRatio float64) {
	if est, ok := e.AccuracyEstimate(); ok {
		e.accAlarm.Evaluate(est, fillRatio)
	}
}

// AccuracyAlarm returns the latched saturation message, if any.
func (e *Engine) AccuracyAlarm() (string, bool) { return e.accAlarm.Message() }

// AccuracyShadowBytes sums the memory held by every shard monitor's exact
// shadow.
func (e *Engine) AccuracyShadowBytes() uint64 {
	var total uint64
	for _, m := range e.monitors {
		total += m.ShadowFootprintBytes()
	}
	return total
}

// FillRatio estimates the mean bloom fill ratio across the shard partitions
// that are asymmetric signatures (exact backends have no filters; with none,
// it returns 0). sample bounds the per-shard probe cost exactly as in
// Asymmetric.FillRatio. It reads the partitions themselves, so call it only
// after Close; LiveFillRatio serves readers while the run is in flight.
func (e *Engine) FillRatio(sample int) float64 {
	return e.meanFill(func(a *sig.Asymmetric) float64 { return a.FillRatio(sample) })
}

// LiveFillRatio is the mean of the fill ratios the shard workers last
// published (Asymmetric.LiveFillRatio). Safe from any goroutine.
func (e *Engine) LiveFillRatio() float64 {
	return e.meanFill((*sig.Asymmetric).LiveFillRatio)
}

func (e *Engine) meanFill(fill func(*sig.Asymmetric) float64) float64 {
	var sum float64
	n := 0
	for _, s := range e.shards {
		if a, ok := s.backend.(*sig.Asymmetric); ok {
			sum += fill(a)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SigFootprintBytes sums the live memory of every shard's signature
// partition.
func (e *Engine) SigFootprintBytes() uint64 {
	var total uint64
	for _, s := range e.shards {
		total += s.backend.FootprintBytes()
	}
	return total
}
