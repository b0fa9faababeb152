package commprof

import (
	"fmt"
	"runtime"

	"commprof/internal/obs"
	"commprof/internal/pipeline"
	"commprof/internal/trace"
)

// ShardPolicy names the sharded analyser's overload behaviour (what happens
// to producers while a shard queue is full).
type ShardPolicy string

const (
	// ShardPolicyBlock (the default) applies backpressure: producers block
	// until the shard worker catches up. Analysis stays exhaustive; producer
	// speed follows the slowest shard.
	ShardPolicyBlock ShardPolicy = "block"
	// ShardPolicyDegrade degrades to read sampling under overload: while a
	// shard queue is saturated, only a burst fraction of reads is enqueued
	// and the rest are dropped and counted (Report.Pipeline.DroppedReads).
	// Writes are never dropped — losing a write would corrupt last-writer
	// attribution rather than merely losing volume.
	ShardPolicyDegrade ShardPolicy = "degrade"
	// ShardPolicyAuto adapts between the two: exhaustive (blocking) analysis
	// until producer stall episodes show sustained overload, then degrade
	// until every shard queue drains, then exhaustive again. Mode switches
	// are counted in Report.Pipeline.PolicyTransitions; a run that never
	// overloads behaves exactly like ShardPolicyBlock.
	ShardPolicyAuto ShardPolicy = "auto"
)

func (p ShardPolicy) toInternal() (pipeline.OverloadPolicy, error) {
	switch p {
	case "", ShardPolicyBlock:
		return pipeline.PolicyBlock, nil
	case ShardPolicyDegrade:
		return pipeline.PolicyDegrade, nil
	case ShardPolicyAuto:
		return pipeline.PolicyAuto, nil
	}
	return 0, fmt.Errorf("commprof: unknown shard policy %q (want %q, %q or %q)", p, ShardPolicyBlock, ShardPolicyDegrade, ShardPolicyAuto)
}

// newPipeline maps the public Options onto a sharded analysis engine of the
// given shard count whose shards partition the configured signature slot
// budget. ps (nil when PhaseWindow is unset) supplies the windowed phase
// layer's close callback and probes.
func newPipeline(opts Options, shards, threads int, table *trace.Table, probes *obs.Probes, ps *phaseState) (*pipeline.Engine, error) {
	policy, err := opts.ShardPolicy.toInternal()
	if err != nil {
		return nil, err
	}
	return pipeline.New(pipeline.Options{
		Shards:              shards,
		Threads:             threads,
		Table:               table,
		GranularityBits:     opts.GranularityBits,
		QueueCapacity:       opts.ShardQueueCapacity,
		BatchSize:           opts.ShardBatchSize,
		Policy:              policy,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            opts.accuracyOptions(threads, probes),
		NewBackend:          pipeline.AsymmetricFactory(opts.SignatureSlots, shards, threads, opts.BloomFPRate, probes.SigProbes()),
		Probes:              probes.PipelineProbes(),
		DetectProbes:        probes.DetectProbes(),
		PhaseWindow:         opts.PhaseWindow,
		OnWindowClose:       ps.onClose(),
		PhaseProbes:         probes.PhaseProbes(),
		Stages:              probes.StageProbes(),
		Overhead:            probes.OverheadProbes(),
		Timeline:            opts.Telemetry.Timeline(),
	})
}

// pipelineReport snapshots a closed engine's shard configuration and load.
func pipelineReport(pe *pipeline.Engine) *PipelineReport {
	sstats := pe.ShardStats()
	rep := &PipelineReport{
		Shards:               pe.Shards(),
		QueueCapacity:        pe.QueueCapacity(),
		BatchSize:            pe.BatchSize(),
		Policy:               pe.Policy().String(),
		PolicyTransitions:    pe.PolicyTransitions(),
		DroppedReads:         pe.Stats().DroppedReads,
		ProducerFlushes:      pe.ProducerFlushes(),
		PeakResidentAccesses: pe.PeakResidentAccesses(),
		PeakDepths:           make([]int, len(sstats)),
		ShardProcessed:       make([]uint64, len(sstats)),
	}
	for i, s := range sstats {
		rep.PeakDepths[i] = s.PeakDepth
		rep.ShardProcessed[i] = s.Processed
	}
	return rep
}

// ProfileTraceParallel analyses a recorded access trace with the sharded
// parallel pipeline instead of ProfileTrace's serial detector: addresses are
// hashed across Options.AnalysisShards analysis shards (0 = GOMAXPROCS), each
// with a private partition of the signature budget and its own worker. On a
// collision-free run the result is identical to ProfileTrace; with the
// approximate asymmetric signature the expected false-positive rate matches
// but the specific collisions differ (see the internal/pipeline package
// documentation).
func ProfileTraceParallel(accesses []Access, regions []Region, threads int, opts Options) (*Report, error) {
	if opts.AnalysisShards == 0 {
		opts.AnalysisShards = runtime.GOMAXPROCS(0)
	}
	return ProfileTrace(accesses, regions, threads, opts)
}
