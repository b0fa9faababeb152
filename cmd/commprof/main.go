// Command commprof profiles one of the bundled SPLASH-2-style benchmarks and
// prints its nested communication patterns, hotspot thread loads, detected
// phases and pattern classification. It can also record the run's access
// trace for later offline analysis, or replay a previously recorded trace.
//
// Usage:
//
//	commprof -app lu_ncb -threads 32 -size simdev
//	commprof -list
//	commprof -app fft -heatmap -classify
//	commprof -app ocean_cp -shards 8 -shard-policy degrade
//	commprof -app fft -shards 4 -phases 5000 -telemetry-addr :9090
//	commprof -app radix -record radix.trace
//	commprof -replay radix.trace -threads 32
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commprof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "", "benchmark to profile (see -list)")
		list     = fs.Bool("list", false, "list available benchmarks and exit")
		threads  = fs.Int("threads", 32, "simulated thread count")
		size     = fs.String("size", "simdev", "input size: simdev, simsmall or simlarge")
		seed     = fs.Int64("seed", 42, "workload random seed")
		slots    = fs.Uint64("sig", 1<<20, "signature slots (n)")
		fpRate   = fs.Float64("fpr", 0.001, "bloom-filter false-positive rate")
		phases   = fs.Uint64("phases", 0, "phase window in logical time units: enables §V-A4 segmentation plus the classified pattern timeline, composes with -shards (0 = off)")
		heatmap  = fs.Bool("heatmap", false, "print the global matrix heatmap")
		csv      = fs.Bool("csv", false, "print the global matrix as CSV")
		classify = fs.Bool("classify", false, "classify the global matrix's parallel pattern")
		jsonOut  = fs.Bool("json", false, "emit the full report as JSON instead of text")
		parallel = fs.Bool("parallel", false, "run threads as free goroutines (non-deterministic)")
		sample   = fs.Uint("sample", 0, "read-sampling period: analyse 1 of every N reads (0 = all)")
		gran     = fs.Uint("granularity", 0, "analysis granularity in address bits (0 = per address, 6 = 64B lines)")
		coalesce = fs.Bool("coalesce", true, "statically coalesce provably redundant probes before execution (MiniPar pipeline; -coalesce=false disables)")
		shards   = fs.Int("shards", 0, "analysis shards for the parallel pipeline (0 = serial analysis, or one shard with -parallel)")
		shardQ   = fs.Int("shard-queue", 0, "per-shard bounded queue capacity in accesses (0 = default 8192)")
		shardB   = fs.Int("shard-batch", 0, "producer staging batch / worker drain limit in accesses (0 = default 256)")
		shardPol = fs.String("shard-policy", "block", "shard overload policy: block (backpressure), degrade (thin reads while saturated) or auto (degrade only under sustained overload)")
		redunB   = fs.Uint("redundancy-bits", 0, "redundancy fast-path cache size in bits: 2^N entries per analyser filtering same-thread repeated accesses before the signature (0 = off)")
		record   = fs.String("record", "", "also write the access trace to this file")
		replay   = fs.String("replay", "", "analyse a recorded trace file instead of running a benchmark")
		traceFm  = fs.Int("trace-format", 0, "trace codec version -record writes: 1 (fixed records), 2 (adds thread count + file:line) or 3 (compact delta/varint blocks); 0 = default v3. -replay auto-detects")
		telem    = fs.Bool("telemetry", false, "collect profiler self-observability metrics and print a Prometheus-text dump after the run")
		telAddr  = fs.String("telemetry-addr", "", "serve live /metrics, /metrics.json and /progress on this address during the run (e.g. :9090, :0 picks a port)")
		telDump  = fs.String("telemetry-dump", "", "write a final Prometheus-text metrics snapshot to this file at exit (for scrape-less CI environments)")
		timeline = fs.String("timeline", "", "write the run's execution timeline to this file as Chrome/Perfetto trace-event JSON (implies telemetry)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the telemetry server (needs -telemetry-addr)")
		accBits  = fs.Uint("accuracy-bits", 0, "accuracy-monitor sample slice: shadow 1 of every 2^N granules with an exact detector (0 = every granule; only meaningful with -accuracy-target or when set explicitly)")
		accTgt   = fs.Float64("accuracy-target", 0, "enable the online signature-accuracy monitor and alarm when the estimated FPR crosses this target, e.g. 0.05 (0 = off unless -accuracy-bits is set, which implies the default target)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Setting either accuracy flag opts into the monitor; -accuracy-bits
	// alone runs against the default target. flag.Visit distinguishes an
	// explicit -accuracy-bits 0 (sample everything) from the flag's absence.
	accuracyOn := *accTgt > 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "accuracy-bits" {
			accuracyOn = true
		}
	})
	if accuracyOn && *accTgt == 0 {
		*accTgt = commprof.DefaultAccuracyTargetFPR
	}

	if *list {
		for _, n := range commprof.Workloads() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	opts := commprof.Options{
		Workload:        *app,
		Threads:         *threads,
		InputSize:       *size,
		Seed:            *seed,
		SignatureSlots:  *slots,
		BloomFPRate:     *fpRate,
		PhaseWindow:     *phases,
		Parallel:        *parallel,
		GranularityBits: *gran,
		AnalysisShards:  *shards,
		DisableCoalesce: !*coalesce,

		RedundancyCacheBits: *redunB,
		TraceFormat:         *traceFm,
	}
	if *shards > 0 {
		opts.ShardQueueCapacity = *shardQ
		opts.ShardBatchSize = *shardB
		opts.ShardPolicy = commprof.ShardPolicy(*shardPol)
	}
	if *sample > 0 {
		opts.SampleBurst, opts.SamplePeriod = 1, uint32(*sample)
	}
	if accuracyOn {
		opts.AccuracyTargetFPR = *accTgt
		opts.AccuracySampleBits = *accBits
	}
	var tel *commprof.Telemetry
	if *telem || *telAddr != "" || *telDump != "" || *timeline != "" {
		tel = commprof.NewTelemetry()
		opts.Telemetry = tel
		if *timeline != "" {
			tel.EnableTimeline()
		}
		if *pprofOn {
			tel.EnablePprof()
		}
		if *telAddr != "" {
			addr, err := tel.Serve(*telAddr)
			if err != nil {
				fmt.Fprintln(stderr, "commprof:", err)
				return 1
			}
			defer tel.Close()
			fmt.Fprintf(stderr, "commprof: serving telemetry on http://%s/metrics (live snapshot at /progress)\n", addr)
		}
	}

	var rep *commprof.Report
	var err error
	switch {
	case *replay != "":
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fmt.Fprintln(stderr, "commprof:", ferr)
			return 1
		}
		defer f.Close()
		rep, err = commprof.Replay(f, *threads, opts)
	case *app == "all":
		code := runAll(opts, stdout, stderr)
		if rc := writeTelemetryDump(tel, *telDump, stderr); code == 0 && rc != 0 {
			return rc
		}
		if rc := writeTimelineFile(tel, *timeline, stderr); code == 0 && rc != 0 {
			return rc
		}
		return code
	case *app == "":
		fmt.Fprintln(stderr, "commprof: -app is required (or -list/-replay); available:", strings.Join(commprof.Workloads(), ", "))
		return 2
	case *record != "":
		f, ferr := os.Create(*record)
		if ferr != nil {
			fmt.Fprintln(stderr, "commprof:", ferr)
			return 1
		}
		rep, err = commprof.Record(opts, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			os.Remove(*record) // a failed recording leaves no partial trace
		}
	default:
		rep, err = commprof.Profile(opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	if rc := writeTelemetryDump(tel, *telDump, stderr); rc != 0 {
		return rc
	}
	if rc := writeTimelineFile(tel, *timeline, stderr); rc != 0 {
		return rc
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, rep.Summary())
	if rep.SampleFraction < 1 {
		fmt.Fprintf(stdout, "\n(read sampling active: %.1f%% of reads analysed; volumes scale accordingly)\n",
			100*rep.SampleFraction)
	}
	if *heatmap {
		fmt.Fprintln(stdout, "\nglobal communication matrix:")
		fmt.Fprint(stdout, rep.Global.Heatmap())
	}
	if *csv {
		fmt.Fprint(stdout, rep.Global.CSV())
	}
	if *classify {
		c, err := commprof.NewPatternClassifier(*seed)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		class, err := c.Classify(rep.Global)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\npattern class: %s\n", class)
	}
	if *telem {
		fmt.Fprintln(stdout, "\n-- telemetry (Prometheus text format) --")
		if err := tel.WriteProm(stdout); err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
	}
	return 0
}

// writeTelemetryDump writes a final Prometheus-text snapshot to path; a
// no-op when either the path or the telemetry handle is absent. Returns a
// process exit code.
func writeTelemetryDump(tel *commprof.Telemetry, path string, stderr io.Writer) int {
	if tel == nil || path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	err = tel.WriteProm(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	return 0
}

// writeTimelineFile writes the run's execution timeline as trace-event JSON
// to path; a no-op when either the path or the telemetry handle is absent.
// Returns a process exit code.
func writeTimelineFile(tel *commprof.Telemetry, path string, stderr io.Writer) int {
	if tel == nil || path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	err = tel.WriteTimeline(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	return 0
}

// runAll prints a one-line summary per bundled benchmark.
func runAll(opts commprof.Options, stdout, stderr io.Writer) int {
	classifier, err := commprof.NewPatternClassifier(opts.Seed)
	if err != nil {
		fmt.Fprintln(stderr, "commprof:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %10s %9s %12s %-22s %s\n",
		"app", "accesses", "deps", "comm bytes", "top hotspot", "hotspot class")
	for _, app := range commprof.Workloads() {
		o := opts
		o.Workload = app
		rep, err := commprof.Profile(o)
		if err != nil {
			fmt.Fprintln(stderr, "commprof:", err)
			return 1
		}
		hotspot, class := "-", "-"
		if len(rep.Hotspots) > 0 {
			hotspot = rep.Hotspots[0].Region
			for _, r := range rep.Regions {
				if r.Name == hotspot {
					if c, err := classifier.Classify(r.Matrix); err == nil {
						class = c
					}
				}
			}
		}
		fmt.Fprintf(stdout, "%-11s %10d %9d %12d %-22s %s\n",
			app, rep.Accesses, rep.Dependencies, rep.CommBytes, hotspot, class)
	}
	return 0
}
