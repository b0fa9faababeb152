package commprof

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/obs"
	"commprof/internal/pipeline"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// session is one analysis run: access source → analyser → report. It is
// assembled once from Options, the thread count and the region table, and
// every entry point only adapts its source to it: the simulated-thread
// engine (runEngine: Profile, Run, ProfileMiniPar, Record) or a batch source
// (runBatches: ProfileTrace and ProfileTraceParallel over a []Access,
// Replay over a trace.Decoder). The analyser is the serial detector, or the
// sharded pipeline when AnalysisShards or Parallel asks for one.
type session struct {
	name    string
	opts    Options
	threads int
	table   *trace.Table
	tel     *Telemetry
	probes  *obs.Probes
	ps      *phaseState // nil without PhaseWindow

	// an is the analyser's read surface for the report and telemetry.
	// Exactly one of serial and pe is set; sources feed whichever it is
	// directly, never through an.
	an     analyser
	serial *serialAnalyser
	pe     *pipeline.Engine
	// producers feed pe; finish flushes them before closing it.
	producers []*pipeline.Producer

	gate    *detect.Gate // read sampling; nil when off
	skipped atomic.Uint64
}

// analyser is what the report, the accuracy section and telemetry read from
// a session's analyser. *pipeline.Engine implements it as is; serialAnalyser
// adapts the serial detector. Nothing calls it per access.
type analyser interface {
	Stats() pipeline.Stats
	Tree() (*comm.Tree, error)
	SigFootprintBytes() uint64
	LiveFillRatio() float64
	FillRatio(sample int) float64
	RedundancyStats() (redundancy.Stats, bool)
	AccuracyEstimate() (accuracy.Estimate, bool)
	EvaluateAccuracy(fillRatio float64)
	AccuracyAlarm() (string, bool)
	AccuracyShadowBytes() uint64
	AdvancePhases() int
	PhaseWindows() (*comm.WindowSet, error)
}

// serialAnalyser is the paper's serial detector with its signature, its
// accuracy monitor (nil when off) and its phase segmenter (nil without
// PhaseWindow), seen through the pipeline engine's read surface.
type serialAnalyser struct {
	d       *detect.Detector
	backend *sig.Asymmetric
	mon     *accuracy.Monitor
	seg     *metrics.PhaseSegmenter
	onClose func(*comm.Window, uint64)
}

func (a *serialAnalyser) Stats() pipeline.Stats {
	st := a.d.Stats()
	return pipeline.Stats{Processed: st.Processed, Detected: st.Detected, CommBytes: st.CommBytes}
}

func (a *serialAnalyser) Tree() (*comm.Tree, error)                 { return a.d.Tree() }
func (a *serialAnalyser) SigFootprintBytes() uint64                 { return a.backend.FootprintBytes() }
func (a *serialAnalyser) LiveFillRatio() float64                    { return a.backend.LiveFillRatio() }
func (a *serialAnalyser) FillRatio(sample int) float64              { return a.backend.FillRatio(sample) }
func (a *serialAnalyser) RedundancyStats() (redundancy.Stats, bool) { return a.d.RedundancyStats() }

func (a *serialAnalyser) AccuracyEstimate() (accuracy.Estimate, bool) {
	if a.mon == nil {
		return accuracy.Estimate{}, false
	}
	return a.mon.Estimate(), true
}

func (a *serialAnalyser) EvaluateAccuracy(fillRatio float64) {
	if a.mon != nil {
		a.mon.Evaluate(fillRatio)
	}
}

func (a *serialAnalyser) AccuracyAlarm() (string, bool) {
	if a.mon == nil {
		return "", false
	}
	return a.mon.Alarm()
}

func (a *serialAnalyser) AccuracyShadowBytes() uint64 {
	if a.mon == nil {
		return 0
	}
	return a.mon.ShadowFootprintBytes()
}

func (a *serialAnalyser) AdvancePhases() int { return a.seg.Advance(a.onClose) }

func (a *serialAnalyser) PhaseWindows() (*comm.WindowSet, error) {
	a.seg.Flush(a.onClose)
	return a.seg.WindowSet(), nil
}

// newSession assembles the analysis for one run. batched marks a batch
// source: its serial detector then takes the sampled signature/redundancy/
// shadow overhead split, which the batch loop's per-batch timing completes
// into Report.Overhead. Engine-driven serial runs have no such per-batch
// boundary and stay untimed.
func newSession(name string, opts Options, threads int, table *trace.Table, batched bool) (*session, error) {
	tel := opts.Telemetry
	s := &session{name: name, opts: opts, threads: threads, table: table, tel: tel, probes: tel.probes()}
	var err error
	if opts.SamplePeriod > 0 {
		if s.gate, err = detect.NewGate(threads, opts.SampleBurst, opts.SamplePeriod); err != nil {
			return nil, err
		}
	}
	if s.ps, err = newPhaseState(opts, table, tel, s.probes); err != nil {
		return nil, err
	}
	shards := opts.AnalysisShards
	if shards == 0 && opts.Parallel {
		shards = 1 // one worker owns the whole signature; the threads only produce
	}
	if shards > 0 {
		if s.pe, err = newPipeline(opts, shards, threads, table, s.probes, s.ps); err != nil {
			return nil, err
		}
		s.an = s.pe
		return s, nil
	}
	a := &serialAnalyser{}
	if a.backend, err = sig.NewAsymmetric(sig.Options{
		Slots: opts.SignatureSlots, Threads: threads, FPRate: opts.BloomFPRate,
		Probes: s.probes.SigProbes(),
	}); err != nil {
		return nil, err
	}
	if ao := opts.accuracyOptions(threads, s.probes); ao != nil {
		if a.mon, err = accuracy.New(*ao); err != nil {
			return nil, err
		}
	}
	dopts := detect.Options{
		Threads: threads, Backend: a.backend, Table: table,
		GranularityBits:     opts.GranularityBits,
		RedundancyCacheBits: opts.RedundancyCacheBits,
		Accuracy:            a.mon,
		Probes:              s.probes.DetectProbes(),
	}
	if batched {
		dopts.Overhead = s.probes.OverheadProbes()
	}
	if s.ps != nil {
		if a.seg, err = metrics.NewPhaseSegmenter(threads, opts.PhaseWindow, phaseThreshold); err != nil {
			return nil, err
		}
		dopts.OnEvent = a.seg.Observe
		a.onClose = s.ps.onClose()
	}
	if a.d, err = detect.New(dopts); err != nil {
		return nil, err
	}
	s.serial, s.an = a, a
	return s, nil
}

// admit applies read sampling to one access, counting the reads it skips.
// Writes always pass: skipping one would corrupt last-writer attribution.
func (s *session) admit(a trace.Access) bool {
	if a.Kind == trace.Read && !s.gate.Admit(a.Thread) {
		s.skipped.Add(1)
		return false
	}
	return true
}

// wire binds telemetry and the live phase surfaces to the run; eng is nil
// for batch sources.
func (s *session) wire(eng *exec.Engine) {
	s.tel.wire(eng, s)
	s.ps.wire(s.an.AdvancePhases)
}

// runEngine drives the session from the simulated-thread engine. The engine
// calls the detector's own probe, or a pipeline producer's Process, with no
// adapter in between unless sampling or tee asks for one. Under Parallel
// each thread stages into its own producer, flushed at every
// synchronisation point, so accesses that synchronisation orders reach the
// shard queues in that order. Otherwise one producer carries every thread
// and flushes on thread switches (the scheduler's quantum boundaries),
// which preserves the exact global arrival order. tee, when non-nil,
// receives every access before sampling; setup (nil-safe) ends when the run
// starts.
func (s *session) runEngine(setup *obs.SpanHandle, tee *trace.Stream, run func(*exec.Engine) (exec.Stats, error)) (*Report, error) {
	var probe exec.Probe
	var flushThread func(int32)
	switch {
	case s.serial != nil:
		probe = s.serial.d.Probe()
	case s.opts.Parallel:
		s.producers = make([]*pipeline.Producer, s.threads)
		for i := range s.producers {
			s.producers[i] = s.pe.NewProducer(false)
		}
		producers := s.producers
		probe = func(a trace.Access) { producers[a.Thread].Process(a) }
		flushThread = func(thread int32) { producers[thread].Flush() }
	default:
		p := s.pe.NewProducer(true)
		s.producers = []*pipeline.Producer{p}
		probe = p.Process
	}
	if s.gate != nil {
		inner := probe
		probe = func(a trace.Access) {
			if s.admit(a) {
				inner(a)
			}
		}
	}
	if tee != nil {
		inner := probe
		probe = func(a trace.Access) {
			tee.Accesses = append(tee.Accesses, a)
			inner(a)
		}
	}
	eng := exec.New(exec.Options{
		Threads: s.threads, Probe: probe, Parallel: s.opts.Parallel, Sync: flushThread,
		Probes: s.probes.EngineProbes(),
	})
	s.wire(eng)
	setup.End()
	span := s.tel.span("engine-run")
	stats, err := run(eng)
	span.End()
	if err != nil {
		s.abort()
		return nil, err
	}
	return s.finish(stats)
}

// replayBatchSize is the batch buffer capacity runBatches reuses: large
// enough to amortise per-batch overhead across a v3 block's worth of
// records, small enough to stay resident in cache.
const replayBatchSize = 1024

// runBatches drives the session from a batch source. next refills buf (its
// capacity is the batch size) with the following accesses and returns
// io.EOF once none are left; any other error aborts the run after the
// prefix before it was analysed. Every batch is validated and tallied
// (check), thinned by read sampling, then handed to the analyser whole,
// with one stage timing per batch.
func (s *session) runBatches(next func(buf []trace.Access) ([]trace.Access, error)) (*Report, error) {
	var feed func([]trace.Access)
	var stage *obs.Histogram
	stages := s.probes.StageProbes()
	if s.serial != nil {
		feed = s.serial.d.ProcessBatch
		if stages != nil {
			stage = stages.BatchService
		}
	} else {
		p := s.pe.NewProducer(false)
		s.producers = []*pipeline.Producer{p}
		feed = p.ProcessBatch
		if stages != nil {
			stage = stages.Producer
		}
	}
	s.wire(nil)
	var stats exec.Stats
	batch := make([]trace.Access, 0, replayBatchSize)
	for {
		var err error
		if batch, err = next(batch); err == io.EOF {
			break
		}
		if err == nil {
			err = s.check(&stats, batch)
		}
		if err != nil {
			s.abort()
			return nil, err
		}
		if s.gate != nil {
			kept := batch[:0]
			for _, a := range batch {
				if s.admit(a) {
					kept = append(kept, a)
				}
			}
			batch = kept
		}
		var t0 time.Time
		if stage != nil {
			t0 = time.Now()
		}
		feed(batch)
		if stage != nil {
			stage.Observe(uint64(time.Since(t0)))
		}
	}
	return s.finish(stats)
}

// check validates a batch from an outside source and tallies it into stats:
// every thread must lie in [0,threads) and every region must be NoRegion or
// an index into the region table. The analyser indexes its matrices by
// both, so a bad value must stop here, before a shard worker can panic on
// it.
func (s *session) check(stats *exec.Stats, batch []trace.Access) error {
	for _, a := range batch {
		if a.Thread < 0 || int(a.Thread) >= s.threads {
			return fmt.Errorf("commprof: access %d has thread %d, outside [0,%d)", stats.Accesses, a.Thread, s.threads)
		}
		if a.Region != trace.NoRegion && (a.Region < 0 || int(a.Region) >= s.table.Len()) {
			return fmt.Errorf("commprof: access %d has region %d, outside the %d-region table", stats.Accesses, a.Region, s.table.Len())
		}
		stats.Accesses++
		if a.Kind == trace.Write {
			stats.Writes++
		} else {
			stats.Reads++
		}
	}
	return nil
}

// abort releases a failed run: the telemetry samplers and the shard
// workers stop.
func (s *session) abort() {
	s.tel.stopFillSampler()
	s.tel.stopPhaseSampler()
	if s.pe != nil {
		s.pe.Close()
	}
}

// finish drains the analyser and renders the report: flush and close the
// pipeline, build and check the region tree, then attach the redundancy,
// pipeline, accuracy, phase and sampling sections and the telemetry
// snapshot. stats describes the source's accesses.
func (s *session) finish(stats exec.Stats) (*Report, error) {
	stages := s.probes.StageProbes()
	var t0 time.Time
	if s.pe != nil {
		drain := s.tel.span("pipeline-drain")
		if stages != nil {
			t0 = time.Now()
		}
		for _, p := range s.producers {
			p.Flush()
		}
		if stages != nil {
			stages.Producer.Observe(uint64(time.Since(t0)))
		}
		s.pe.Close()
		drain.End()
	}
	build := s.tel.span("tree-build")
	if stages != nil {
		t0 = time.Now()
	}
	tree, err := s.an.Tree()
	if err == nil {
		if lerr := tree.CheckSummationLaw(); lerr != nil {
			err = fmt.Errorf("commprof: internal invariant violated: %w", lerr)
		}
	}
	if err != nil {
		s.abort()
		return nil, err
	}
	if stages != nil {
		stages.Merge.Observe(uint64(time.Since(t0)))
	}
	build.End()
	rep := s.report(tree, stats)
	if s.pe != nil {
		rep.Pipeline = pipelineReport(s.pe)
	}
	if rst, ok := s.an.RedundancyStats(); ok {
		rep.Redundancy = redundancyReport(rst)
	}
	if est, ok := s.an.AccuracyEstimate(); ok {
		fill := s.an.FillRatio(256)
		s.an.EvaluateAccuracy(fill)
		rec := accuracy.Recommend(est, s.opts.SignatureSlots, s.threads, s.opts.BloomFPRate)
		alarm, _ := s.an.AccuracyAlarm()
		rep.Accuracy = accuracyReport(est, rec, s.an.AccuracyShadowBytes(), fill, s.tel.fillTrajectory(), alarm)
	}
	if s.ps != nil {
		ws, err := s.an.PhaseWindows()
		if err != nil {
			s.abort()
			return nil, err
		}
		s.ps.attach(rep, ws)
	}
	if s.gate != nil {
		rep.SampleFraction = s.gate.Fraction()
	}
	s.tel.finishRun(rep, tree)
	return rep, nil
}

// report renders a finished, law-checked communication tree into the public
// report form.
func (s *session) report(tree *comm.Tree, stats exec.Stats) *Report {
	span := s.tel.span("report")
	defer span.End()
	st := s.an.Stats()
	rep := &Report{
		Workload:       s.name,
		Threads:        s.threads,
		Accesses:       stats.Accesses,
		Dependencies:   st.Detected,
		CommBytes:      st.CommBytes,
		SignatureBytes: s.an.SigFootprintBytes(),
		SampleFraction: 1,
		Global:         fromInternal(tree.Global),
	}
	tree.Walk(func(n *comm.Node, depth int) {
		rep.Regions = append(rep.Regions, RegionReport{
			Name:            n.Region.Label(),
			File:            n.Region.File,
			Line:            n.Region.Line,
			Kind:            n.Region.Kind.String(),
			Depth:           depth,
			Accesses:        n.Accesses,
			OwnBytes:        n.Own.Total(),
			CumulativeBytes: n.Cumulative.Total(),
			Matrix:          fromInternal(n.Cumulative),
		})
	})
	maxHotspots := s.opts.MaxHotspots
	if maxHotspots < 0 {
		maxHotspots = tree.NodeCount() // negative lifts the cap: rank every loop
	}
	for _, h := range tree.Hotspots(maxHotspots) {
		load := metrics.ThreadLoad(h.Node.Cumulative)
		rep.Hotspots = append(rep.Hotspots, HotspotReport{
			Region:        h.Node.Region.Label(),
			Bytes:         h.Bytes,
			Share:         h.Share,
			Load:          load,
			ActiveThreads: metrics.ActiveThreads(load),
			BalanceIndex:  metrics.BalanceIndex(load),
		})
	}
	return rep
}
