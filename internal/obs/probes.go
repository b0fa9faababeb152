package obs

// Per-layer probe bundles. The hot layers (internal/sig, internal/detect,
// internal/exec) accept one of these as an optional Options field; a nil
// bundle is the uninstrumented fast path and costs exactly one pointer
// nil-check at each hook site. Counter/Histogram fields inside a bundle may
// individually be nil (they are no-ops), so callers can wire any subset.

// SigProbes instruments the asymmetric signature memory.
type SigProbes struct {
	// FilterAllocs counts second-level bloom filters allocated (slot
	// occupancy is FilterAllocs relative to the slot count).
	FilterAllocs *Counter
	// ReaderResets counts write-triggered bloom-filter invalidations
	// (Fig. 2's communicating-access rule clearing the reader set). The
	// signature adds them in batches when it publishes, not per write.
	ReaderResets *Counter
}

// DetectProbes instruments the RAW-dependence detector (Algorithm 1).
type DetectProbes struct {
	// Events counts detected inter-thread RAW dependencies.
	Events *Counter
	// StaleWriterDrops counts events discarded because a collision-corrupted
	// slot surfaced an out-of-range writer ID.
	StaleWriterDrops *Counter
	// EventBytes is the size distribution of detected communication events.
	EventBytes *Histogram
	// RedundantSkips counts accesses the redundancy fast path filtered out
	// before they reached the signature backend (0 when the cache is off).
	RedundantSkips *Counter
}

// PipelineProbes instruments the sharded parallel analysis engine
// (internal/pipeline).
type PipelineProbes struct {
	// Enqueued counts accesses accepted into shard queues.
	Enqueued *Counter
	// DroppedReads counts reads the degrade-to-sampling overload policy
	// discarded while a shard queue was saturated.
	DroppedReads *Counter
	// EnqueueStalls counts producer waits on a full shard queue — the
	// backpressure episodes a bounded queue trades for the original
	// DiscoPoP's unbounded growth.
	EnqueueStalls *Counter
	// BatchSizes is the distribution of batch sizes workers drained per
	// wakeup (1 = no amortization, BatchSize = fully amortized).
	BatchSizes *Histogram
	// QueueDepth is the shard queue depth sampled at each worker drain,
	// the throughput-facing complement of the per-shard live depth gauges.
	QueueDepth *Histogram
	// ProducerFlushes counts producer staging-buffer flushes (batch-full,
	// quantum-switch and end-of-stream flushes alike); Enqueued over
	// ProducerFlushes is the realised enqueue amortization factor.
	ProducerFlushes *Counter
	// PolicyTransitions counts adaptive overload-policy mode switches
	// (block→degrade on a stall-rate spike, degrade→block once drained);
	// always 0 outside PolicyAuto.
	PolicyTransitions *Counter
}

// AccuracyProbes instruments the shadow-sampling accuracy monitor
// (internal/accuracy).
type AccuracyProbes struct {
	// Sampled counts accesses that reached the exact shadow (the monitor's
	// hash-selected granule slice, after redundancy skips).
	Sampled *Counter
	// Confirmed counts production communicating-access verdicts the exact
	// shadow agreed with, writer attribution included.
	Confirmed *Counter
	// FalsePositives counts production verdicts the shadow rejected or
	// re-attributed — the numerator of the live FPR estimate.
	FalsePositives *Counter
	// MissedEvents counts exact dependencies the bounded signature failed
	// to report (signature false negatives).
	MissedEvents *Counter
}

// TraceProbes instruments the incremental trace codec (internal/trace).
type TraceProbes struct {
	// DecodedRecords counts access records the streaming Decoder has decoded
	// — the progress feed of a long offline replay. Updates are batched
	// (per block/batch), so mid-stream reads may lag by up to a batch; the
	// total after EOF is exact.
	DecodedRecords *Counter
	// EncodedRecords counts access records written by the streaming
	// encoders, batched the same way.
	EncodedRecords *Counter
}

// PhaseProbes instruments the windowed phase-classification layer
// (internal/metrics timeline + pipeline window close).
type PhaseProbes struct {
	// WindowsClosed counts communication windows closed and classified.
	WindowsClosed *Counter
	// Transitions counts whole-program pattern-class changes between
	// consecutive closed windows.
	Transitions *Counter
	// LateWindows counts shard window partials that surfaced after their
	// window had already been emitted live (possible only in parallel engine
	// mode, where per-shard arrival order is not monotone in event time; the
	// final report timeline is recomputed from complete merged windows and is
	// unaffected).
	LateWindows *Counter
}

// StageProbes holds the pipeline's stage latency histograms, one log2
// histogram per stage of the analysis path. Observations are batched — one
// per drained batch, producer flush, decoded batch or merge, never one per
// access — so an enabled set costs a handful of monotonic-clock reads per
// few hundred accesses. Each histogram's Sum doubles as the stage's total
// nanoseconds, which is what the overhead self-attribution report reads.
type StageProbes struct {
	// QueueWait is the time a producer spent blocked on a full shard queue,
	// one observation per stalled enqueue call (PolicyBlock backpressure).
	QueueWait *Histogram
	// Drain is one worker drain cycle: ring copy + detector batch + window
	// flush. BatchService and Window are its two timed sub-stages.
	Drain *Histogram
	// BatchService is the detector's batch service time within a drain.
	BatchService *Histogram
	// Window is the windowed phase layer's cost: the per-drain window flush
	// plus frontier advances.
	Window *Histogram
	// Producer is one producer staging call on the replay path (stage +
	// enqueue, including any backpressure blocking).
	Producer *Histogram
	// Decode is one streaming Decoder.NextBatch call.
	Decode *Histogram
	// Merge is the end-of-run shard merge + communication tree build.
	Merge *Histogram
}

// OverheadProbes accumulates the sampled overhead split inside the detector:
// every overheadSampleEvery-th access times its redundancy-cache check and
// shadow-monitor calls individually and adds the scaled-up nanoseconds here.
// The remaining detector time is attributed to the signature backend at
// report time (signature = batch service − redundancy − shadow), so the sum
// of the three buckets is exact even though the split is an estimate.
type OverheadProbes struct {
	// RedundancyNanos estimates total time in the redundancy fast-path cache.
	RedundancyNanos *Counter
	// ShadowNanos estimates total time in the accuracy monitor's shadow.
	ShadowNanos *Counter
}

// EngineProbes instruments the simulated-thread executor.
type EngineProbes struct {
	// QuantumSwitches counts deterministic-scheduler turns (one per quantum
	// handed to a runnable thread).
	QuantumSwitches *Counter
	// BarrierWaits counts per-thread barrier wait episodes.
	BarrierWaits *Counter
	// LockWaits counts per-thread blocked lock acquisitions.
	LockWaits *Counter
	// ElidedProbes counts accesses executed through the elided-tick path:
	// the static coalescing pass proved their probes redundant, so they
	// advance the clock and counters but never reach the analysis backend.
	ElidedProbes *Counter
}

// Probes bundles every layer's hooks for one profiling run.
type Probes struct {
	Sig      *SigProbes
	Detect   *DetectProbes
	Engine   *EngineProbes
	Pipeline *PipelineProbes
	Trace    *TraceProbes
	Accuracy *AccuracyProbes
	Phase    *PhaseProbes
	Stage    *StageProbes
	Overhead *OverheadProbes
}

// DefaultProbes wires a full probe set into r under the standard metric
// names. Returns nil (all layers disabled) on a nil registry.
func DefaultProbes(r *Registry) *Probes {
	if r == nil {
		return nil
	}
	return &Probes{
		Sig: &SigProbes{
			FilterAllocs: r.Counter("sig_filter_allocs_total"),
			ReaderResets: r.Counter("sig_reader_resets_total"),
		},
		Detect: &DetectProbes{
			Events:           r.Counter("detect_events_total"),
			StaleWriterDrops: r.Counter("detect_stale_writer_drops_total"),
			EventBytes:       r.Histogram("detect_event_bytes"),
			RedundantSkips:   r.Counter("detect_redundant_skips_total"),
		},
		Engine: &EngineProbes{
			QuantumSwitches: r.Counter("exec_quantum_switches_total"),
			BarrierWaits:    r.Counter("exec_barrier_waits_total"),
			LockWaits:       r.Counter("exec_lock_waits_total"),
			ElidedProbes:    r.Counter("exec_elided_probes_total"),
		},
		Pipeline: &PipelineProbes{
			Enqueued:          r.Counter("pipeline_enqueued_total"),
			DroppedReads:      r.Counter("pipeline_dropped_reads_total"),
			EnqueueStalls:     r.Counter("pipeline_enqueue_stalls_total"),
			BatchSizes:        r.Histogram("pipeline_batch_size"),
			QueueDepth:        r.Histogram("pipeline_queue_depth"),
			ProducerFlushes:   r.Counter("pipeline_producer_flushes_total"),
			PolicyTransitions: r.Counter("pipeline_policy_transitions_total"),
		},
		Trace: &TraceProbes{
			DecodedRecords: r.Counter("trace_decoded_records_total"),
			EncodedRecords: r.Counter("trace_encoded_records_total"),
		},
		Accuracy: &AccuracyProbes{
			Sampled:        r.Counter("accuracy_sampled_total"),
			Confirmed:      r.Counter("accuracy_confirmed_total"),
			FalsePositives: r.Counter("accuracy_false_positives_total"),
			MissedEvents:   r.Counter("accuracy_missed_events_total"),
		},
		Phase: &PhaseProbes{
			WindowsClosed: r.Counter("phase_windows_closed_total"),
			Transitions:   r.Counter("phase_transitions_total"),
			LateWindows:   r.Counter("phase_late_windows_total"),
		},
		Stage: &StageProbes{
			QueueWait:    r.Histogram("stage_queue_wait_nanos"),
			Drain:        r.Histogram("stage_drain_nanos"),
			BatchService: r.Histogram("stage_batch_service_nanos"),
			Window:       r.Histogram("stage_window_nanos"),
			Producer:     r.Histogram("stage_producer_nanos"),
			Decode:       r.Histogram("stage_decode_nanos"),
			Merge:        r.Histogram("stage_merge_nanos"),
		},
		Overhead: &OverheadProbes{
			RedundancyNanos: r.Counter("overhead_redundancy_nanos_total"),
			ShadowNanos:     r.Counter("overhead_shadow_nanos_total"),
		},
	}
}

// SigProbes returns the signature layer's bundle; nil-safe.
func (p *Probes) SigProbes() *SigProbes {
	if p == nil {
		return nil
	}
	return p.Sig
}

// DetectProbes returns the detector layer's bundle; nil-safe.
func (p *Probes) DetectProbes() *DetectProbes {
	if p == nil {
		return nil
	}
	return p.Detect
}

// EngineProbes returns the executor layer's bundle; nil-safe.
func (p *Probes) EngineProbes() *EngineProbes {
	if p == nil {
		return nil
	}
	return p.Engine
}

// PipelineProbes returns the sharded-analyser bundle; nil-safe.
func (p *Probes) PipelineProbes() *PipelineProbes {
	if p == nil {
		return nil
	}
	return p.Pipeline
}

// TraceProbes returns the trace-codec bundle; nil-safe.
func (p *Probes) TraceProbes() *TraceProbes {
	if p == nil {
		return nil
	}
	return p.Trace
}

// AccuracyProbes returns the accuracy-monitor bundle; nil-safe.
func (p *Probes) AccuracyProbes() *AccuracyProbes {
	if p == nil {
		return nil
	}
	return p.Accuracy
}

// PhaseProbes returns the phase-classification bundle; nil-safe.
func (p *Probes) PhaseProbes() *PhaseProbes {
	if p == nil {
		return nil
	}
	return p.Phase
}

// StageProbes returns the stage-latency bundle; nil-safe.
func (p *Probes) StageProbes() *StageProbes {
	if p == nil {
		return nil
	}
	return p.Stage
}

// OverheadProbes returns the overhead-split bundle; nil-safe.
func (p *Probes) OverheadProbes() *OverheadProbes {
	if p == nil {
		return nil
	}
	return p.Overhead
}
