// Package commprof is a loop-level communication-pattern profiler for
// shared-memory parallel programs — a from-scratch reproduction of
// "Characterizing Loop-Level Communication Patterns in Shared Memory
// Applications" (Mazaheri, Jannesari, Mirzaei, Wolf — ICPP 2015).
//
// The profiler detects read-after-write dependencies between threads on the
// fly using an asymmetric signature memory (a two-level bloom-filter read
// signature plus a one-level last-writer write signature), and aggregates
// them into communication matrices nested by static code region (functions
// and annotated loops). From the matrices it derives per-thread load metrics
// (Eq. 1), communication phases, and parallel-pattern classifications.
//
// Three entry points:
//
//   - Profile runs one of the bundled SPLASH-2-style benchmarks under the
//     profiler and returns a full Report.
//   - ProfileTrace analyses a recorded access trace you supply.
//   - Run executes your own workload body on the simulated thread engine
//     with the profiler attached.
package commprof

import (
	"fmt"

	"commprof/internal/accuracy"
	"commprof/internal/obs"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// Options configures a profiling run.
type Options struct {
	// Workload names a bundled benchmark (see Workloads). Required for
	// Profile and Record; the other entry points bring their own accesses.
	Workload string
	// Threads is the simulated thread count (default 32, the paper's
	// configuration).
	Threads int
	// InputSize is "simdev", "simsmall" or "simlarge" (default "simdev").
	InputSize string
	// Seed drives all workload randomness. The zero value is a sentinel
	// meaning "unset" and is rewritten to the default 42 by setDefaults, so
	// an explicit Seed: 0 cannot be distinguished from leaving the field
	// empty — both run with seed 42. Pick any other value to seed
	// explicitly.
	Seed int64
	// SignatureSlots is the signature size n (default 2^20). Larger means
	// fewer false dependencies and more memory (Eq. 2). At most 2^32−1, the
	// reach of the signature's 32-bit filter index; larger values fail with
	// an *OptionsError.
	SignatureSlots uint64
	// BloomFPRate is the per-slot bloom-filter false-positive rate. The
	// zero value is a sentinel meaning "unset" and becomes the paper's
	// 0.001; an explicit 0 is not a valid rate (sig rejects rates outside
	// (0,1)), so the sentinel loses no expressible configuration.
	BloomFPRate float64
	// PhaseWindow, when non-zero, enables windowed phase observability with
	// the given logical-time window length: §V-A4 phase segmentation
	// (Report.Phases), a classified pattern timeline with whole-program
	// transitions and a per-hot-loop digest (Report.PhaseTimeline), and —
	// with Options.Telemetry — live current-pattern gauges plus phase fields
	// in /progress. Windows are bucketed by the global access index every
	// access already carries, so the layer composes with AnalysisShards:
	// shard partials merge by summation into exactly the window set the
	// serial analyser builds.
	PhaseWindow uint64
	// Parallel runs threads as free goroutines instead of the deterministic
	// round-robin scheduler. Results remain correct but are no longer
	// bit-reproducible across runs. The threads do not analyse: each stages
	// its accesses in its own producer for the sharded pipeline, flushed at
	// every barrier and lock release, so every analyser structure keeps a
	// single owner. With AnalysisShards 0 the pipeline has one shard, which
	// owns the whole un-partitioned signature; Report.Pipeline describes it.
	// ProfileTrace and Replay have no threads to free, so there Parallel
	// only selects that pipeline. Record rejects it with an *OptionsError:
	// a recording needs one global access order.
	Parallel bool
	// SampleBurst/SamplePeriod enable read sampling (the paper's §VII
	// overhead-reduction outlook): of every SamplePeriod reads per thread,
	// the first SampleBurst are analysed; writes are always analysed. Zero
	// values disable sampling. Detected volumes scale by roughly
	// SampleBurst/SamplePeriod. Record still writes every access to the
	// trace.
	SampleBurst, SamplePeriod uint32
	// GranularityBits coarsens the analysis granularity: addresses are
	// shifted right by this amount before consulting the signature (0 =
	// per-address, 6 = 64-byte cache lines). Coarser analysis reduces
	// signature collisions but merges neighbouring variables (false
	// sharing appears).
	GranularityBits uint
	// DisableCoalesce turns off the static access-coalescing pass on
	// MiniPar runs (ProfileMiniPar; see internal/passes.Coalesce). The
	// pass is on by default: probes the compiler proves redundant within a
	// basic block or simple loop body are elided before the analyser ever
	// sees them, shrinking every downstream stage while leaving scheduling
	// and timestamps bit-identical. Elisions are exact under sync-only
	// scheduling (a quantum no thread exhausts); under the default
	// preemptive quantum they assume the usual data-race-free/no-false-
	// sharing discipline between synchronisation points — set this to true
	// to profile code that races within a scheduling quantum. Ignored by
	// the bundled SPLASH workloads, which issue accesses directly rather
	// than through compiled MiniPar IR.
	DisableCoalesce bool
	// MaxHotspots caps the number of ranked hotspot loops in the report.
	// 0 means the default of 10; a negative value lifts the cap entirely.
	MaxHotspots int
	// AnalysisShards, when positive, replaces the serial in-thread analyser
	// with the sharded parallel pipeline (internal/pipeline): each access is
	// routed by address hash to one of AnalysisShards shards, each owning a
	// private partition of the signature slot budget, a bounded queue and a
	// dedicated worker goroutine; shard matrices merge into the standard
	// report at the end of the run. 0 (the default) keeps the paper's serial
	// analysis (a Parallel run then uses one shard, see Parallel; the
	// ProfileTraceParallel entry point uses GOMAXPROCS shards). Negative
	// values fail with an *OptionsError. Composes
	// with PhaseWindow: shard workers bucket events by
	// the global access index and the per-shard window partials merge to the
	// serial analyser's exact window set.
	AnalysisShards int
	// ShardQueueCapacity bounds each shard's queue in accesses when the
	// sharded analyser runs (0 = the pipeline default of 8192).
	ShardQueueCapacity int
	// ShardPolicy selects the sharded analyser's overload behaviour:
	// ShardPolicyBlock (default) applies backpressure, ShardPolicyDegrade
	// thins reads while a queue is saturated. Ignored by the serial
	// analyser.
	ShardPolicy ShardPolicy
	// ShardBatchSize sets the sharded analyser's producer staging batch and
	// worker drain limit in accesses (0 = the pipeline default of 256).
	// Larger batches amortise shard-queue locking further; smaller ones
	// reduce detection latency and staging residency. Ignored by the
	// serial analyser.
	ShardBatchSize int
	// RedundancyCacheBits, when non-zero, enables the redundancy-filtering
	// fast path: a 2^bits-entry direct-mapped cache of the last (thread,
	// kind) to touch each analysis granule, which skips the signature
	// backend for accesses Algorithm 1 provably classifies as
	// non-communicating — a thread re-reading or re-writing what it just
	// touched (see internal/redundancy). Detected dependencies and matrices
	// are unchanged on a collision-free backend and statistically unchanged
	// on the asymmetric signature; Report.Redundancy carries the hit-rate
	// telemetry. 10–14 bits (a cache that fits in L1/L2) is the sweet spot;
	// at most 20 (12 MiB per cache), larger values fail with an
	// *OptionsError. The sharded analyser gives every shard worker a
	// private cache.
	RedundancyCacheBits uint
	// AccuracyTargetFPR, when positive (and < 1), enables the online
	// signature-accuracy monitor: a deterministically hash-selected
	// 1/2^AccuracySampleBits slice of the granule address space is analysed
	// a second time by an exact collision-free shadow, and every production
	// communicating-access verdict in the slice is confirmed or refuted
	// against it. The run gains Report.Accuracy — a live estimate of the
	// signature false-positive rate (the paper's §V-A3 number) with a 95%
	// confidence interval, an Eq. 2 recommended-signature-size advisor, and
	// a warn-once saturation alarm — at the cost of shadowing the sampled
	// slice exactly. Zero (the default) disables the monitor. The value is
	// the FPR the run is expected to stay under; DefaultAccuracyTargetFPR
	// is a reasonable starting point. The sharded analyser monitors per
	// shard.
	AccuracyTargetFPR float64
	// AccuracySampleBits is k in the 1/2^k accuracy sample: 0 shadows every
	// granule (exact — Report.Accuracy.EstimatedFPR equals the offline
	// exact-diff FPR, at unbounded shadow memory), each added bit halves
	// the monitored slice and the monitor's cost. Ignored unless
	// AccuracyTargetFPR is set. At most accuracy.MaxSampleBits (16).
	AccuracySampleBits uint
	// TraceFormat selects the trace codec version Record writes: 1 (fixed
	// 29-byte records, no thread count in the header), 2 (v1 records plus
	// thread count and region file:line) or 3 (the default — compact
	// delta/varint block encoding, typically 3-10x smaller; see
	// internal/trace and DESIGN §9). 0 means the default. Replay
	// auto-detects the version from the stream header, so the knob only
	// affects writing.
	TraceFormat int
	// Telemetry, when non-nil, threads self-observability probes through
	// the signature, detector and executor layers, records run-phase spans,
	// and attaches an end-of-run snapshot as Report.Telemetry. See
	// NewTelemetry. Nil (the default) keeps the pipeline uninstrumented.
	Telemetry *Telemetry
}

func (o *Options) setDefaults() {
	if o.Threads == 0 {
		o.Threads = 32
	}
	if o.InputSize == "" {
		o.InputSize = "simdev"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.SignatureSlots == 0 {
		o.SignatureSlots = 1 << 20
	}
	if o.BloomFPRate == 0 {
		o.BloomFPRate = 0.001
	}
	if o.MaxHotspots == 0 {
		o.MaxHotspots = 10
	}
	if o.TraceFormat == 0 {
		o.TraceFormat = trace.DefaultVersion
	}
}

// OptionsError reports an Options value that a run rejects before it
// allocates anything: a size beyond a documented memory or index bound.
type OptionsError struct {
	Field string // the Options field
	Err   error  // what is wrong with its value
}

func (e *OptionsError) Error() string { return "commprof: Options." + e.Field + ": " + e.Err.Error() }

func (e *OptionsError) Unwrap() error { return e.Err }

// normalize fills the defaults in and checks the fields that size
// allocations against their bounds; every entry point calls it first.
func (o *Options) normalize() error {
	o.setDefaults()
	if o.SignatureSlots > sig.MaxSlots {
		return &OptionsError{Field: "SignatureSlots", Err: &sig.SlotsError{Slots: o.SignatureSlots}}
	}
	if o.AnalysisShards < 0 {
		return &OptionsError{Field: "AnalysisShards", Err: fmt.Errorf("%d is negative", o.AnalysisShards)}
	}
	if o.RedundancyCacheBits > redundancy.MaxBits {
		return &OptionsError{Field: "RedundancyCacheBits", Err: fmt.Errorf("%d bits exceeds the %d-bit bound (%d MiB per cache)",
			o.RedundancyCacheBits, redundancy.MaxBits, 12<<redundancy.MaxBits>>20)}
	}
	return nil
}

// DefaultAccuracyTargetFPR is a reasonable Options.AccuracyTargetFPR when
// the caller has no specific budget: 5%, between the paper's 8.4% and 2.1%
// operating points.
const DefaultAccuracyTargetFPR = accuracy.DefaultTargetFPR

// accuracyOptions maps the public accuracy knobs onto internal/accuracy
// options; nil when the monitor is disabled (AccuracyTargetFPR == 0).
func (o Options) accuracyOptions(threads int, probes *obs.Probes) *accuracy.Options {
	if o.AccuracyTargetFPR <= 0 {
		return nil
	}
	return &accuracy.Options{
		Threads:    threads,
		SampleBits: o.AccuracySampleBits,
		TargetFPR:  o.AccuracyTargetFPR,
		Probes:     probes.AccuracyProbes(),
	}
}

// Workloads returns the names of the bundled SPLASH-2-style benchmarks.
func Workloads() []string { return splash.Names() }

// SignatureMemoryBytes is Eq. 2: the fixed analysis-memory bound for a
// signature with n slots, t threads and the given bloom false-positive rate.
func SignatureMemoryBytes(slots uint64, threads int, fpRate float64) uint64 {
	return sig.SigMem(slots, threads, fpRate)
}

// Profile runs the named bundled workload under the profiler.
func Profile(opts Options) (*Report, error) { return profileSplash(opts, nil) }

// profileSplash runs a bundled workload through one analysis session on the
// simulated-thread engine; Profile and Record end here. tee, when non-nil,
// receives the region table and every access in global order.
func profileSplash(opts Options, tee *trace.Stream) (*Report, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	setup := opts.Telemetry.span("workload-setup")
	size, err := splash.ParseSize(opts.InputSize)
	if err != nil {
		return nil, err
	}
	prog, err := splash.New(opts.Workload, splash.Config{
		Threads: opts.Threads, Size: size, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	if tee != nil {
		tee.Table = prog.Table()
	}
	s, err := newSession(opts.Workload, opts, opts.Threads, prog.Table(), false)
	if err != nil {
		return nil, err
	}
	return s.runEngine(setup, tee, prog.Run)
}
