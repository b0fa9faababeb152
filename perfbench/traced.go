package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"commprof"
	"commprof/internal/accuracy"
	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/metrics"
	"commprof/internal/murmur"
	"commprof/internal/patterns"
	"commprof/internal/pipeline"
	"commprof/internal/redundancy"
	"commprof/internal/sig"
	"commprof/internal/trace"
)

// The traced decomposition run re-drives the workload's access stream
// through the exported functions of each layer, with spans around the calls,
// and prints one value per per-layer metric. Each workload's own path is
// assembled from the layers the way its facade call assembles them:
//
//   - profile-radix: the exec pass (splash program on the engine with a
//     counting probe) plus the serial detect pass with the tree build;
//   - replay-sharded-water: the pipeline pass (v3 decode, producer, close,
//     tree, accuracy estimate, phase timeline) with the workload's Options;
//   - probe-record: the target process, split at its marker into work and
//     shutdown.
//
// The sum of those layers' self times, set against the untraced end-to-end
// time measured in the same run, is the closure check. Layers off the
// workload's path are still driven over its stream, with the settings the
// replay workload uses, so every metric has a value on every workload; they
// do not enter its closure. The analysis layers inside a shard worker (sig,
// redundancy, accuracy, detect) run one shard after another on the
// benchmark's own split of the stream, so their per-access costs are CPU
// time, not wall time.

const (
	tracedReps = 3
	batchSize  = 1024 // the replay loop's NextBatch buffer
	// The settings off-path layers are measured with: those of
	// replay-sharded-water.
	measureRedundancyBits = 14
	measureSampleBits     = 6
	measureTargetFPR      = 0.05
	// routeSeed splits the stream into the benchmark's per-shard
	// substreams. It is the benchmark's own hash, not the pipeline's route,
	// so the split has the same statistics as the real one but not the same
	// members.
	routeSeed = 0x5BD1E995C6A4A793
	// sigSampleEvery is the rate at which the sig pass times single calls to
	// split its cost between reads and writes.
	sigSampleEvery = 16
)

// stream is one workload's access stream, held in memory.
type stream struct {
	table   *trace.Table
	threads int
	acc     []trace.Access
	v3      []byte // the stream in the v3 format Record and the shim write
	maxTime uint64
}

// layerConfig is how the layers analyse the stream: the workload's
// effective Options, and which optional layers its path has.
type layerConfig struct {
	opts       commprof.Options
	shards     int // shard workers on the workload's path; 1 for the serial analyser
	redundancy bool
	accuracy   bool
	window     uint64 // phase window the window and timeline layers use
	windows    bool   // whether the window layer is on the workload's path
}

type tracedRunner struct {
	cfg   *config
	lc    layerConfig
	st    *stream
	subs  [][]trace.Access // the per-shard split of st.acc
	knn   *patterns.KNN
	vals  map[string][]float64
	units map[string]string
	notes []string
	fails int
	// recorded is the v3 trace replay-sharded-water's facade runs replay.
	recorded []byte
	// events are the dependencies the last accuracy pass found.
	events []comm.WindowEvent
	// e2eAccesses are the access counts of the end-to-end reports, checked
	// once the stream is loaded.
	e2eAccesses []uint64
}

func (r *tracedRunner) rec(name, unit string, v float64) {
	r.vals[name] = append(r.vals[name], v)
	r.units[name] = unit
}

func (r *tracedRunner) fail(err error) {
	r.fails++
	fmt.Fprintln(os.Stderr, "perfbench: traced run check failed:", err)
}

func tracedRun(cfg *config) (*result, error) {
	r := &tracedRunner{cfg: cfg, vals: map[string][]float64{}, units: map[string]string{}}
	ref, err := probeSetup(cfg)
	if err != nil {
		return nil, fmt.Errorf("probe target setup: %w", err)
	}
	r.rec("instrument.sites", "count", float64(ref.Sites))
	r.rec("instrument.coalesced_sites", "count", float64(ref.Coalesced))
	if r.knn, err = trainClassifier(); err != nil {
		return nil, err
	}
	// The end-to-end runs come first, before the traced passes hold the
	// stream in memory, so the GC they see works on the run's own heap.
	e2e, err := r.endToEnd(ref)
	if err != nil {
		return nil, err
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	for _, n := range r.e2eAccesses {
		if n != uint64(len(r.st.acc)) {
			r.fail(fmt.Errorf("an end-to-end report counts %d accesses, the stream has %d", n, len(r.st.acc)))
		}
	}
	tr := newTracer()
	for rep := 0; rep < tracedReps; rep++ {
		tr.begin(fmt.Sprintf("rep-%d", rep))
		traced := r.rep(tr, ref, e2e)
		tr.end()
		// The tracing overhead: the workload's path once more with the
		// tracer off, against the traced path.
		untraced := r.path(&tracer{off: true}, ref)
		r.rec("commprof.tracing_overhead_s", "s", (traced - untraced).Seconds())
	}
	if cfg.workload.analysis != nil {
		if err := r.crossCheck(tr); err != nil {
			return nil, err
		}
	}
	spanDir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload.name, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), spanFile)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	res := &result{Correct: r.fails == 0, Attempted: tracedReps, Failed: min(r.fails, tracedReps), Metrics: map[string]metric{}}
	for name, xs := range r.vals {
		res.Metrics[name] = metric{Value: median(xs), Unit: r.units[name]}
	}
	return res, nil
}

// load builds the workload's stream and layer configuration.
func (r *tracedRunner) load() error {
	cfg := r.cfg
	st := &stream{}
	var opts commprof.Options
	if w := cfg.workload; w.source != nil {
		src := w.source(cfg.seed)
		s, err := collect(src)
		if err != nil {
			return err
		}
		st.table, st.threads, st.acc = s.Table, src.Threads, s.Accesses
		var buf bytes.Buffer
		if err := s.EncodeVersion(&buf, 3, st.threads); err != nil {
			return err
		}
		st.v3 = buf.Bytes()
		opts = w.analysis(cfg.seed, cfg.nproc)
	} else {
		// The last end-to-end run's trace.
		b, err := os.ReadFile(cfg.probeTracePath())
		if err != nil {
			return err
		}
		s, threads, err := decodeTrace(b)
		if err != nil {
			return err
		}
		st.table, st.threads, st.acc, st.v3 = s.Table, threads, s.Accesses, b
		// A probe trace is analysed offline with default Options.
		opts = commprof.Options{Threads: st.threads}
	}
	for _, a := range st.acc {
		st.maxTime = max(st.maxTime, a.Time)
	}
	r.st = st
	opts = withDefaults(opts)
	lc := layerConfig{
		opts:       opts,
		shards:     max(opts.AnalysisShards, 1),
		redundancy: opts.RedundancyCacheBits > 0,
		accuracy:   opts.AccuracyTargetFPR > 0,
		window:     opts.PhaseWindow,
		windows:    opts.PhaseWindow > 0,
	}
	if !lc.windows {
		// A few dozen windows, as on the replay workload.
		lc.window = 1
		for lc.window*32 < st.maxTime {
			lc.window <<= 1
		}
	}
	r.lc = lc
	r.subs = make([][]trace.Access, lc.shards)
	for _, a := range st.acc {
		k := 0
		if lc.shards > 1 {
			k = int(murmur.HashAddr(a.Addr>>opts.GranularityBits, routeSeed) % uint64(lc.shards))
		}
		r.subs[k] = append(r.subs[k], a)
	}
	return nil
}

// withDefaults fills the Options fields the layers need with the facade's
// defaults.
func withDefaults(o commprof.Options) commprof.Options {
	if o.SignatureSlots == 0 {
		o.SignatureSlots = 1 << 20
	}
	if o.BloomFPRate == 0 {
		o.BloomFPRate = 0.001
	}
	return o
}

// trainClassifier builds the pattern classifier the facade trains for the
// phase timeline (Options.Seed unset, so seed 42).
func trainClassifier() (*patterns.KNN, error) {
	return patterns.NewKNN(5, patterns.Corpus(60, []int{8, 16, 32}, 0, rand.New(rand.NewSource(42))))
}

// endToEnd measures the untraced end-to-end time the closure compares
// against: the median of tracedReps runs of the workload's own entry path,
// in this process for the facade calls. Every run is checked. The runtime
// metrics are read around the facade calls.
func (r *tracedRunner) endToEnd(ref *setupResult) (time.Duration, error) {
	w := r.cfg.workload
	if w.name == "replay-sharded-water" {
		var buf bytes.Buffer
		if _, err := commprof.Record(w.source(r.cfg.seed), &buf); err != nil {
			return 0, err
		}
		r.recorded = buf.Bytes()
	}
	if w.analysis != nil {
		// One untimed run first, so the timed ones find the heap grown.
		if _, err := r.facade(nil); err != nil {
			return 0, err
		}
	}
	var walls []float64
	for i := 0; i < tracedReps; i++ {
		if w.analysis == nil {
			_, run, err := measureProbe(r.cfg, ref)
			if err != nil {
				r.fail(err)
				continue
			}
			walls = append(walls, run.wall.Seconds())
			continue
		}
		runtime.GC()
		var before, after [3]float64
		readRuntime(&before)
		t0 := time.Now()
		rep, err := r.facade(nil)
		walls = append(walls, time.Since(t0).Seconds())
		readRuntime(&after)
		if err != nil {
			return 0, err
		}
		if err := checkSummationLaw(rep); err != nil {
			r.fail(err)
		}
		r.e2eAccesses = append(r.e2eAccesses, rep.Accesses)
		r.recRuntime(before, after, float64(rep.Accesses))
	}
	if len(walls) == 0 {
		return 0, errors.New("no end-to-end run succeeded")
	}
	return time.Duration(median(walls) * 1e9), nil
}

func (r *tracedRunner) recRuntime(before, after [3]float64, accesses float64) {
	frac := 0.0
	if cpu := after[1] - before[1]; cpu > 0 {
		frac = (after[0] - before[0]) / cpu
	}
	r.rec("runtime.gc_cpu_fraction", "ratio", frac)
	r.rec("runtime.heap_alloc_bytes_per_access", "bytes", (after[2]-before[2])/accesses)
}

// facade makes the workload's facade call, replaying the recorded trace
// from memory.
func (r *tracedRunner) facade(tel *commprof.Telemetry) (*commprof.Report, error) {
	opts := r.cfg.workload.analysis(r.cfg.seed, r.cfg.nproc)
	opts.Telemetry = tel
	return r.cfg.workload.facade(opts, bytes.NewReader(r.recorded))
}

func (r *tracedRunner) checkReport(rep *commprof.Report) {
	if err := checkSummationLaw(rep); err != nil {
		r.fail(err)
	}
	if rep.Accesses != uint64(len(r.st.acc)) {
		r.fail(fmt.Errorf("report counts %d accesses, the stream has %d", rep.Accesses, len(r.st.acc)))
	}
}

// rep makes one traced repetition of every pass and returns the duration of
// the workload's own path.
func (r *tracedRunner) rep(tr *tracer, ref *setupResult, e2e time.Duration) time.Duration {
	n := float64(len(r.st.acc))
	from := tr.mark()
	pathTime := r.path(tr, ref)
	path := tr.mark()
	// Off-path passes. A pass already run as the workload's path is not run
	// again.
	name := r.cfg.workload.name
	if name != "profile-radix" {
		r.execPass(tr)
		r.detectPass(tr)
	}
	if name != "replay-sharded-water" {
		r.pipelinePass(tr)
	}
	if name != "probe-record" {
		r.probePass(tr, ref)
	}
	r.encodePass(tr)
	r.accuracyPass(tr)
	r.componentPasses(tr)
	to := tr.mark()

	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	sum := func(names ...string) time.Duration {
		var d time.Duration
		for _, nm := range names {
			d += tr.self(from, path, nm)
		}
		return d
	}
	var attributed time.Duration
	switch name {
	case "profile-radix":
		attributed = sum("exec", "detect", "comm.tree")
	case "replay-sharded-water":
		attributed = sum("pipeline.new", "trace.decode", "pipeline.producer", "pipeline.close",
			"comm.tree.sharded", "accuracy.report", "metrics.classifier", "metrics.timeline")
	default:
		attributed = sum("probe.work", "probe.shutdown")
	}
	r.rec("commprof.end_to_end_s", "s", e2e.Seconds())
	r.rec("commprof.attributed_s", "s", attributed.Seconds())
	r.rec("commprof.unattributed_share", "ratio", (e2e-attributed).Seconds()/e2e.Seconds())

	// Per-layer values from this repetition's spans.
	r.rec("exec.ns_per_access", "ns", perAccess(tr.total(from, to, "exec")))
	r.rec("trace.decode_ns_per_access", "ns", perAccess(tr.total(from, to, "trace.decode")))
	r.rec("trace.encode_ns_per_access", "ns", perAccess(tr.total(from, to, "trace.encode")))
	r.rec("pipeline.producer_ns_per_access", "ns", perAccess(tr.total(from, to, "pipeline.producer")))
	r.rec("pipeline.close_s", "s", tr.total(from, to, "pipeline.close").Seconds())
	r.rec("redundancy.ns_per_access", "ns", perAccess(tr.total(from, to, "redundancy")))
	detectDur := tr.total(from, to, "detect")
	accDur := tr.total(from, to, "accuracy.with") - tr.total(from, to, "accuracy.without")
	r.rec("accuracy.ns_per_access", "ns", perAccess(accDur))
	r.rec("detect.ns_per_access", "ns", perAccess(detectDur))
	self := detectDur - tr.total(from, to, "sig")
	if r.lc.redundancy {
		self -= tr.total(from, to, "redundancy")
	}
	if r.lc.accuracy {
		self -= accDur
	}
	r.rec("detect.self_ns_per_access", "ns", perAccess(self))
	// The tree the workload's analysis builds: serial detector or pipeline.
	tree := "comm.tree"
	if r.lc.shards > 1 {
		tree = "comm.tree.sharded"
	}
	r.rec("comm.tree_ns", "ns", float64(tr.total(from, to, tree).Nanoseconds()))
	r.rec("metrics.timeline_s", "s", tr.total(from, to, "metrics.timeline").Seconds())
	return pathTime
}

// path runs the workload's own path and returns its duration.
func (r *tracedRunner) path(tr *tracer, ref *setupResult) time.Duration {
	t0 := time.Now()
	switch r.cfg.workload.name {
	case "profile-radix":
		r.execPass(tr)
		r.detectPass(tr)
	case "replay-sharded-water":
		r.pipelinePass(tr)
	default:
		r.probePass(tr, ref)
	}
	return time.Since(t0)
}

// execPass runs the access source on exec.Engine with a counting no-op
// probe: the bundled program for SPLASH workloads, and for probe-record a
// body that replays each goroutine's accesses as one engine thread.
func (r *tracedRunner) execPass(tr *tracer) {
	runtime.GC()
	var count uint64
	probe := func(trace.Access) { count++ }
	mallocs := readMallocs()
	tr.begin("exec")
	if src := r.cfg.workload.source; src != nil {
		prog, err := splashProgram(src(r.cfg.seed))
		if err == nil {
			_, err = prog.Run(exec.New(exec.Options{Threads: r.st.threads, Probe: probe}))
		}
		if err != nil {
			r.fail(err)
		}
	} else {
		per := make([][]trace.Access, r.st.threads)
		for _, a := range r.st.acc {
			per[a.Thread] = append(per[a.Thread], a)
		}
		_, err := exec.New(exec.Options{Threads: r.st.threads, Probe: probe}).Run(func(t *exec.Thread) {
			for _, a := range per[t.ID()] {
				if a.Kind == trace.Write {
					t.Write(a.Addr, a.Size)
				} else {
					t.Read(a.Addr, a.Size)
				}
			}
		})
		if err != nil {
			r.fail(err)
		}
	}
	tr.end()
	if tr.off {
		return
	}
	if count != uint64(len(r.st.acc)) {
		r.fail(fmt.Errorf("exec pass issued %d accesses, the stream has %d", count, len(r.st.acc)))
	}
	r.rec("exec.allocs_per_access", "allocs", float64(readMallocs()-mallocs)/float64(count))
}

// newSig builds one shard's signature partition, as
// pipeline.AsymmetricFactory splits the slot budget.
func (r *tracedRunner) newSig() *sig.Asymmetric {
	o := r.lc.opts
	k := uint64(r.lc.shards)
	s, err := sig.NewAsymmetric(sig.Options{Slots: (o.SignatureSlots + k - 1) / k, Threads: r.st.threads, FPRate: o.BloomFPRate})
	if err != nil {
		panic(err) // the Options were validated by the facade runs before
	}
	return s
}

func (r *tracedRunner) newMonitor() *accuracy.Monitor {
	m, err := accuracy.New(accuracy.Options{Threads: r.st.threads, SampleBits: measureSampleBits, TargetFPR: measureTargetFPR})
	if err != nil {
		panic(err)
	}
	return m
}

// detectPass runs the detector over each shard's substream with the
// workload's settings, spanning every ProcessBatch call. On the serial
// workloads it then builds and checks the region tree, as Profile does.
func (r *tracedRunner) detectPass(tr *tracer) {
	runtime.GC()
	var deps uint64
	for _, sub := range r.subs {
		d := r.newDetector(r.lc.accuracy, nil)
		for i := 0; i < len(sub); i += batchSize {
			tr.begin("detect")
			d.ProcessBatch(sub[i:min(i+batchSize, len(sub))])
			tr.end()
		}
		deps += d.Stats().Detected
		if r.lc.shards == 1 {
			tr.begin("comm.tree")
			tree, err := d.Tree()
			if err == nil {
				err = tree.CheckSummationLaw()
			}
			tr.end()
			if err != nil {
				r.fail(err)
			}
		}
	}
	if !tr.off {
		r.rec("detect.dependencies", "count", float64(deps))
	}
}

// accuracyPass runs two detectors over each shard's substream that differ
// only in the accuracy monitor, batch by batch and alternating which goes
// first, so the difference between them is the monitor's cost under the
// same cache and GC conditions. Both collect their events, the window
// layer's input, so that collecting costs them alike.
func (r *tracedRunner) accuracyPass(tr *tracer) {
	runtime.GC()
	var sampled, shadow uint64
	var events, other []comm.WindowEvent
	collect := func(out *[]comm.WindowEvent) func(detect.Event) {
		return func(ev detect.Event) {
			*out = append(*out, comm.WindowEvent{Time: ev.Time, Region: ev.Region, Src: ev.Writer, Dst: ev.Reader, Bytes: uint64(ev.Bytes)})
		}
	}
	for _, sub := range r.subs {
		with, without := r.newDetector(true, collect(&events)), r.newDetector(false, collect(&other))
		for i := 0; i < len(sub); i += batchSize {
			b := sub[i:min(i+batchSize, len(sub))]
			first, second, fname, sname := with, without, "accuracy.with", "accuracy.without"
			if (i/batchSize)%2 == 1 {
				first, second, fname, sname = without, with, "accuracy.without", "accuracy.with"
			}
			tr.begin(fname)
			first.ProcessBatch(b)
			tr.end()
			tr.begin(sname)
			second.ProcessBatch(b)
			tr.end()
		}
		sampled += with.Accuracy().Stats().SampledAccesses
		shadow += with.Accuracy().ShadowFootprintBytes()
	}
	if len(events) != len(other) {
		r.fail(fmt.Errorf("the accuracy monitor changed the detected events: %d vs %d", len(events), len(other)))
	}
	r.events = events
	r.rec("accuracy.sampled_fraction", "ratio", float64(sampled)/float64(len(r.st.acc)))
	r.rec("accuracy.shadow_bytes", "bytes", float64(shadow))
}

func (r *tracedRunner) newDetector(monitored bool, onEvent func(detect.Event)) *detect.Detector {
	o := detect.Options{
		Threads: r.st.threads, Backend: r.newSig(), Table: r.st.table,
		GranularityBits: r.lc.opts.GranularityBits, OnEvent: onEvent,
	}
	if r.lc.redundancy {
		o.RedundancyCacheBits = r.lc.opts.RedundancyCacheBits
	}
	if monitored {
		o.Accuracy = r.newMonitor()
	}
	d, err := detect.New(o)
	if err != nil {
		panic(err)
	}
	return d
}

// pipelinePass replays the v3 stream through the sharded pipeline the way
// Replay does: decode a batch, hand it to the producer, and at the end
// flush, close, build the tree and attach accuracy and phases.
func (r *tracedRunner) pipelinePass(tr *tracer) {
	o := r.lc.opts
	shards := r.cfg.nproc
	if r.lc.shards > 1 {
		shards = r.lc.shards
	}
	runtime.GC()
	tr.begin("pass:pipeline")
	defer tr.end()
	knn := r.knn
	if r.lc.windows {
		// Replay trains the pattern classifier for every run with phases.
		tr.begin("metrics.classifier")
		var err error
		knn, err = trainClassifier()
		tr.end()
		if err != nil {
			r.fail(err)
			return
		}
	}
	tr.begin("pipeline.new")
	po := pipeline.Options{
		Shards: shards, Threads: r.st.threads, Table: r.st.table,
		GranularityBits: o.GranularityBits,
		NewBackend:      pipeline.AsymmetricFactory(o.SignatureSlots, shards, r.st.threads, o.BloomFPRate, nil),
	}
	if r.lc.redundancy {
		po.RedundancyCacheBits = o.RedundancyCacheBits
	}
	if r.lc.accuracy {
		po.Accuracy = &accuracy.Options{Threads: r.st.threads, SampleBits: o.AccuracySampleBits, TargetFPR: o.AccuracyTargetFPR}
	}
	if r.lc.windows {
		po.PhaseWindow = r.lc.window
	}
	pe, err := pipeline.New(po)
	tr.end()
	if err != nil {
		r.fail(err)
		return
	}
	prod := pe.NewProducer(false)
	tr.begin("trace.decode")
	dec, err := trace.NewDecoder(bytes.NewReader(r.st.v3))
	tr.end()
	if err != nil {
		r.fail(err)
		pe.Close()
		return
	}
	batch := make([]trace.Access, 0, batchSize)
	for {
		tr.begin("trace.decode")
		batch, err = dec.NextBatch(batch)
		tr.end()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.fail(err)
			break
		}
		tr.begin("pipeline.producer")
		prod.ProcessBatch(batch)
		tr.end()
	}
	tr.begin("pipeline.producer")
	prod.Flush()
	tr.end()
	tr.begin("pipeline.close")
	pe.Close()
	tr.end()
	tr.begin("comm.tree.sharded")
	tree, err := pe.Tree()
	if err == nil {
		err = tree.CheckSummationLaw()
	}
	tr.end()
	if err != nil {
		r.fail(err)
	}
	if r.lc.accuracy {
		tr.begin("accuracy.report")
		pe.AccuracyEstimate()
		pe.EvaluateAccuracy(pe.FillRatio(256))
		tr.end()
	}
	if r.lc.windows {
		tr.begin("metrics.timeline")
		ws, err := pe.PhaseWindows()
		if err == nil {
			r.timeline(knn, ws)
		} else {
			r.fail(err)
		}
		tr.end()
	}
	if tr.off {
		return
	}
	st := pe.ShardStats()
	var maxP, sumP uint64
	peak := 0
	for _, s := range st {
		maxP, sumP = max(maxP, s.Processed), sumP+s.Processed
		peak = max(peak, s.PeakDepth)
	}
	r.rec("pipeline.shard_skew", "ratio", float64(maxP)/(float64(sumP)/float64(len(st))))
	r.rec("pipeline.peak_depth_share", "ratio", float64(peak)/float64(pe.QueueCapacity()))
	r.rec("pipeline.dropped_reads", "count", float64(pe.Stats().DroppedReads))
}

// timeline derives the §V-A4 phases and the classified pattern timeline
// from a finished window set, as the facade attaches them.
func (r *tracedRunner) timeline(knn *patterns.KNN, ws *comm.WindowSet) {
	metrics.SegmentWindows(ws.Sorted(), r.lc.window, 0.7)
	metrics.BuildTimeline(ws, knn, func(id int32) bool {
		return id >= 0 && int(id) < r.st.table.Len() && r.st.table.MustRegion(id).Kind == trace.LoopRegion
	}, 5)
}

// probePass runs the instrumented target once and the uninstrumented one
// once. The target's marker splits the instrumented run into its work and
// the shim's Shutdown.
func (r *tracedRunner) probePass(tr *tracer, ref *setupResult) {
	_, run, err := measureProbe(r.cfg, ref)
	if err != nil {
		r.fail(err)
		return
	}
	marker := time.Unix(0, run.marker.unixNS)
	tr.add("probe.work", run.start, marker)
	tr.add("probe.shutdown", marker, run.start.Add(run.wall))
	pr, err := runTarget(r.cfg, r.cfg.pristineBin(), nil)
	if err != nil {
		r.fail(err)
		return
	}
	if tr.off {
		return
	}
	if r.cfg.workload.analysis == nil {
		// The probe path's runtime is the target's own, read at its marker.
		r.rec("runtime.gc_cpu_fraction", "ratio", run.marker.gcFraction)
		r.rec("runtime.heap_alloc_bytes_per_access", "bytes", float64(run.marker.allocBytes)/float64(len(r.st.acc)))
	}
	r.rec("probe.work_s", "s", run.workSeconds())
	r.rec("probe.shutdown_s", "s", run.shutdownSeconds())
	r.rec("probe.pristine_s", "s", pr.wall.Seconds())
}

// encodePass writes the stream with the v3 encoder, as Record and the probe
// shim's Shutdown do.
func (r *tracedRunner) encodePass(tr *tracer) {
	var cw countingWriter
	tr.begin("trace.encode")
	enc, err := trace.NewEncoderVersion(&cw, r.st.table, len(r.st.acc), r.st.threads, 3)
	if err == nil {
		for _, a := range r.st.acc {
			if err = enc.Write(a); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = enc.Close()
	}
	tr.end()
	if err != nil {
		r.fail(err)
		return
	}
	r.rec("trace.bytes_per_access", "bytes", float64(cw.n)/float64(len(r.st.acc)))
}

// componentPasses drive the layers inside the detector one at a time over
// each shard's substream: the redundancy cache, then the signature over the
// accesses that reach it on the workload's path (once timed as a whole, once
// with single calls sampled to split reads from writes), and last the
// window layer over the events the accuracy pass collected.
func (r *tracedRunner) componentPasses(tr *tracer) {
	runtime.GC()
	var hits, lookups, filters, footprint, sigAccesses, sigMallocs uint64
	var fill float64
	var readNS, writeNS time.Duration
	var reads, writes uint64
	clock := clockCost()
	for _, sub := range r.subs {
		c, err := redundancy.New(measureRedundancyBits, r.st.threads)
		if err != nil {
			r.fail(err)
			return
		}
		skip := make([]bool, len(sub))
		gran := r.lc.opts.GranularityBits
		tr.begin("redundancy")
		for i, a := range sub {
			skip[i] = c.Redundant(a.Addr>>gran, a.Thread, a.Kind == trace.Write)
		}
		tr.end()
		st := c.Stats()
		hits, lookups = hits+st.Hits, lookups+st.Lookups()

		in := sub
		if r.lc.redundancy {
			in = make([]trace.Access, 0, len(sub))
			for i, a := range sub {
				if !skip[i] {
					in = append(in, a)
				}
			}
		}
		be := r.newSig()
		m0 := readMallocs()
		tr.begin("sig")
		for _, a := range in {
			if a.Kind == trace.Write {
				be.ObserveWrite(a.Addr>>gran, a.Thread)
			} else {
				be.ObserveRead(a.Addr>>gran, a.Thread)
			}
		}
		tr.end()
		sigMallocs += readMallocs() - m0
		sigAccesses += uint64(len(in))
		filters += be.AllocatedFilters()
		footprint += be.FootprintBytes()
		fill += be.FillRatio(256) / float64(len(r.subs))

		be = r.newSig()
		for i, a := range in {
			timed := i%sigSampleEvery == 0
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			if a.Kind == trace.Write {
				be.ObserveWrite(a.Addr>>gran, a.Thread)
			} else {
				be.ObserveRead(a.Addr>>gran, a.Thread)
			}
			if !timed {
				continue
			}
			if d := time.Since(t0); a.Kind == trace.Write {
				writeNS, writes = writeNS+d, writes+1
			} else {
				readNS, reads = readNS+d, reads+1
			}
		}
	}
	r.rec("redundancy.hit_rate", "ratio", float64(hits)/float64(max(lookups, 1)))
	r.rec("sig.read_ns", "ns", float64((readNS/time.Duration(max(reads, 1)) - clock).Nanoseconds()))
	r.rec("sig.write_ns", "ns", float64((writeNS/time.Duration(max(writes, 1)) - clock).Nanoseconds()))
	r.rec("sig.allocs_per_access", "allocs", float64(sigMallocs)/float64(max(sigAccesses, 1)))
	r.rec("sig.filters_allocated", "count", float64(filters))
	r.rec("sig.footprint_bytes", "bytes", float64(footprint))
	r.rec("sig.fill_ratio", "ratio", fill)
	t := uint64(r.st.threads)
	r.rec("comm.matrix_bytes", "bytes", float64(uint64(r.st.table.Len()+2)*t*t*8*uint64(r.lc.shards)))

	ws, err := comm.NewWindowSet(r.st.threads, r.lc.window)
	if err != nil {
		r.fail(err)
		return
	}
	tr.begin("comm.window")
	for _, ev := range r.events {
		ws.Observe(ev.Time, ev.Region, ev.Src, ev.Dst, ev.Bytes)
	}
	tr.end()
	to := tr.mark()
	r.rec("comm.window_ns_per_event", "ns", float64(tr.total(to-1, to, "comm.window").Nanoseconds())/float64(max(len(r.events), 1)))
	if !r.lc.windows {
		tr.begin("metrics.timeline")
		r.timeline(r.knn, ws)
		tr.end()
	}
}

// clockCost is the mean cost of one time.Now/time.Since pair, which the
// sampled per-call signature timings subtract.
func clockCost() time.Duration {
	const n = 1 << 14
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return sum / n
}

// crossCheck makes one extra facade run with Telemetry and prints
// Report.Overhead, the probes users see, next to the traced layer times.
// It does not gate the result.
func (r *tracedRunner) crossCheck(tr *tracer) error {
	rep, err := r.facade(commprof.NewTelemetry())
	if err != nil {
		return err
	}
	r.checkReport(rep)
	ms := func(name string) float64 { return tr.total(0, len(tr.spans), name).Seconds() * 1e3 / tracedReps }
	merge := ms("comm.tree")
	if r.lc.shards > 1 {
		merge = ms("pipeline.close") + ms("comm.tree.sharded")
	}
	perAccessMS := func(metric string) float64 { return median(r.vals[metric]) * float64(len(r.st.acc)) / 1e6 }
	rows := []struct {
		bucket string
		report func(*commprof.OverheadReport) uint64
		traced float64
	}{
		{"decode", func(o *commprof.OverheadReport) uint64 { return o.DecodeNanos }, ms("trace.decode")},
		{"queue", func(o *commprof.OverheadReport) uint64 { return o.QueueNanos }, ms("pipeline.producer")},
		{"signature", func(o *commprof.OverheadReport) uint64 { return o.SignatureNanos }, ms("sig")},
		{"redundancy", func(o *commprof.OverheadReport) uint64 { return o.RedundancyNanos }, ms("redundancy")},
		{"shadow", func(o *commprof.OverheadReport) uint64 { return o.ShadowNanos }, perAccessMS("accuracy.ns_per_access")},
		{"window", func(o *commprof.OverheadReport) uint64 { return o.WindowNanos }, ms("comm.window")},
		{"merge", func(o *commprof.OverheadReport) uint64 { return o.MergeNanos }, merge},
	}
	for _, row := range rows {
		got := "absent"
		if rep.Overhead != nil {
			if v := row.report(rep.Overhead); v > 0 {
				got = fmt.Sprintf("%.2f", float64(v)/1e6)
			}
		}
		r.notes = append(r.notes, fmt.Sprintf("crosscheck %-10s Report.Overhead_ms=%-8s traced_ms_per_rep=%.2f", row.bucket, got, row.traced))
	}
	if rep.Overhead == nil {
		r.notes = append(r.notes, "crosscheck this entry path leaves Report.Overhead nil: every bucket is absent")
	}
	return nil
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readRuntime reads GC CPU seconds, total CPU seconds and cumulative heap
// allocation bytes from runtime/metrics.
func readRuntime(out *[3]float64) {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
