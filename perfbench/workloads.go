package main

import (
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"commprof"
	"commprof/internal/exec"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// workload is one entry path of the profiler with a fixed, seeded input.
type workload struct {
	name string
	// source is the bundled SPLASH program that generates the accesses; nil
	// for probe-record, whose accesses come from a real goroutine program.
	source func(seed int64) commprof.Options
	// analysis is the Options of the measured facade call; nil for
	// probe-record, which records and does not analyse.
	analysis func(seed int64, nproc int) commprof.Options
}

// waterWindow gives water_spat simlarge (about 13.5M logical ticks, since
// its simulated compute advances the clock) a few dozen phase windows.
const waterWindow = 1 << 19

// setupRepeats is how many times a run sets its workload up, each time in a
// fresh process; setup_s is the median.
const setupRepeats = 3

// minRuns is the fewest measured runs a result rests on, even when one run
// outlasts --seconds.
const minRuns = 3

var workloads = []*workload{
	{
		name: "profile-radix",
		source: func(seed int64) commprof.Options {
			return commprof.Options{Workload: "radix", InputSize: "simlarge", Threads: 32, Seed: seed}
		},
		analysis: func(seed int64, _ int) commprof.Options {
			return commprof.Options{Workload: "radix", InputSize: "simlarge", Threads: 32, Seed: seed}
		},
	},
	{
		name: "replay-sharded-water",
		source: func(seed int64) commprof.Options {
			return commprof.Options{Workload: "water_spat", InputSize: "simlarge", Threads: 32, Seed: seed}
		},
		analysis: func(_ int64, nproc int) commprof.Options {
			return commprof.Options{
				Threads:             32,
				AnalysisShards:      nproc,
				RedundancyCacheBits: 14,
				AccuracyTargetFPR:   0.05,
				AccuracySampleBits:  6,
				PhaseWindow:         waterWindow,
			}
		},
	},
	{name: "probe-record"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// setupResult is what one setup process hands back: the workload's reference
// data. Every field but Seconds must be identical across setups.
type setupResult struct {
	Seconds    float64
	Accesses   uint64
	Oracle     [][]uint64 // exact matrix of the access stream
	Digest     string     // digest of the untimed reference run's report
	TraceBytes int64      // bytes of the trace the workload records
	// probe-record only.
	Sites, Coalesced int
	Checksum         int64 // the uninstrumented program's output
}

// runResult is what one measured in-process run hands back.
type runResult struct {
	WallNS   int64
	CPUNS    int64 // user+system CPU time of the facade call, all threads
	Accesses uint64
	Mallocs  uint64
	Digest   string
	Global   [][]uint64
	LawErr   string
}

func (c *config) tracePath() string { return filepath.Join(c.work, "setup.trace") }

// runChild performs one setup or one run in this process and writes its
// result for the parent.
func runChild(cfg *config, mode, out string) error {
	if cfg.work == "" || out == "" {
		return fmt.Errorf("--work and --out are required with --child")
	}
	var v any
	var err error
	switch {
	case mode == "setup" && cfg.workload.source == nil:
		v, err = probeSetup(cfg)
	case mode == "setup":
		v, err = inProcessSetup(cfg)
	case mode == "run" && cfg.workload.analysis != nil:
		v, err = inProcessRun(cfg)
	default:
		return fmt.Errorf("no child mode %q for %s", mode, cfg.workload.name)
	}
	if err != nil {
		return err
	}
	return writeJSON(out, v)
}

// inProcessSetup records the reference data of a SPLASH workload: the exact
// oracle matrix of its access stream, and an untimed reference run. For
// profile-radix the reference run is Record, which runs the same serial
// analysis as Profile and also yields the v3 trace size; for
// replay-sharded-water Record writes the trace the runs replay, and the
// reference run is one untimed Replay with the workload's Options.
func inProcessSetup(cfg *config) (*setupResult, error) {
	w := cfg.workload
	t0 := time.Now()
	src := w.source(cfg.seed)
	res := &setupResult{}
	var ref *commprof.Report
	if w.name == "profile-radix" {
		var cw countingWriter
		rep, err := commprof.Record(src, &cw)
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		ref, res.TraceBytes = rep, cw.n
	} else {
		f, err := os.Create(cfg.tracePath())
		if err != nil {
			return nil, err
		}
		if _, err := commprof.Record(src, f); err != nil {
			f.Close()
			return nil, fmt.Errorf("record: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fi, err := os.Stat(cfg.tracePath())
		if err != nil {
			return nil, err
		}
		res.TraceBytes = fi.Size()
		if ref, err = replayFile(cfg.tracePath(), w.analysis(cfg.seed, cfg.nproc)); err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
	}
	if err := checkSummationLaw(ref); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var err error
	if res.Digest, err = digest(ref); err != nil {
		return nil, err
	}
	o, err := splashOracle(src)
	if err != nil {
		return nil, err
	}
	res.Accesses, res.Oracle = o.count, o.matrix
	res.Seconds = time.Since(t0).Seconds()
	return res, nil
}

// splashOracle drives the bundled program on the deterministic engine with
// the oracle as the only probe: the same access stream Profile and Record
// see, analysed exactly.
func splashOracle(src commprof.Options) (*oracle, error) {
	prog, err := splashProgram(src)
	if err != nil {
		return nil, err
	}
	o := newOracle(src.Threads)
	var oerr error
	eng := exec.New(exec.Options{Threads: src.Threads, Probe: func(a trace.Access) {
		if err := o.observe(a); err != nil && oerr == nil {
			oerr = err
		}
	}})
	if _, err := prog.Run(eng); err != nil {
		return nil, err
	}
	return o, oerr
}

func splashProgram(src commprof.Options) (splash.Program, error) {
	size, err := splash.ParseSize(src.InputSize)
	if err != nil {
		return nil, err
	}
	seed := src.Seed
	if seed == 0 {
		seed = 42 // the facade's default, so seed 0 means the same input everywhere
	}
	return splash.New(src.Workload, splash.Config{Threads: src.Threads, Size: size, Seed: seed})
}

func replayFile(path string, opts commprof.Options) (*commprof.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return commprof.Replay(f, opts.Threads, opts)
}

// facade makes the workload's measured call: Profile, or Replay of the
// given trace.
func (w *workload) facade(opts commprof.Options, trace io.Reader) (*commprof.Report, error) {
	if w.name == "profile-radix" {
		return commprof.Profile(opts)
	}
	return commprof.Replay(trace, opts.Threads, opts)
}

// inProcessRun is one measured run: one facade call, timed alone.
func inProcessRun(cfg *config) (*runResult, error) {
	w := cfg.workload
	opts := w.analysis(cfg.seed, cfg.nproc)
	var src io.Reader
	if w.name != "profile-radix" {
		f, err := os.Open(cfg.tracePath())
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()
	t0 := time.Now()
	rep, err := w.facade(opts, src)
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		WallNS: wall.Nanoseconds(), CPUNS: cpu.Nanoseconds(), Accesses: rep.Accesses,
		Mallocs: after.Mallocs - before.Mallocs, Global: rep.Global.Bytes,
	}
	if err := checkSummationLaw(rep); err != nil {
		res.LawErr = err.Error()
	}
	res.Digest, err = digest(rep)
	return res, err
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return cpuTime(&ru)
}

// cpuTime is the user+system CPU time in a resource usage record. On a
// kernel with paravirtual steal accounting it excludes the time the
// hypervisor gave the virtual CPUs to other guests.
func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// spawn runs this binary as a child in the given mode and returns the
// child's resource usage. The child's stderr passes through.
func spawn(cfg *config, mode, out string) (*syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(self, "--child", mode, "--workload", cfg.workload.name,
		"--seed", itoa(cfg.seed), "--work", cfg.work, "--out", out)
	cmd.Dir = cfg.root
	cmd.Env = childEnv(cfg)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	return cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

func childEnv(cfg *config) []string {
	return append(os.Environ(), "GOMAXPROCS="+itoa(int64(cfg.nproc)))
}

// setupAll sets the workload up setupRepeats times, each in a fresh process,
// and checks that every setup produced the same reference data. It returns
// each setup's CPU seconds, its own and its children's (the go builds), and
// each setup's wall seconds.
func setupAll(cfg *config) (*setupResult, []float64, []float64, error) {
	var first *setupResult
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		out := filepath.Join(cfg.work, "setup.json")
		ru, err := spawn(cfg, "setup", out)
		if err != nil {
			return nil, nil, nil, err
		}
		var s setupResult
		if err := readJSON(out, &s); err != nil {
			return nil, nil, nil, err
		}
		cpu = append(cpu, cpuTime(ru).Seconds())
		wall = append(wall, s.Seconds)
		if first == nil {
			first = &s
			continue
		}
		if err := sameSetup(first, &s); err != nil {
			return nil, nil, nil, fmt.Errorf("setup %d disagrees with setup 1: %w", i+1, err)
		}
	}
	return first, cpu, wall, nil
}

func sameSetup(a, b *setupResult) error {
	switch {
	case a.Accesses != b.Accesses:
		return fmt.Errorf("accesses %d vs %d", a.Accesses, b.Accesses)
	case a.Digest != b.Digest:
		return fmt.Errorf("reference digest differs")
	case a.TraceBytes != b.TraceBytes:
		return fmt.Errorf("trace bytes %d vs %d", a.TraceBytes, b.TraceBytes)
	case a.Sites != b.Sites || a.Coalesced != b.Coalesced || a.Checksum != b.Checksum:
		return fmt.Errorf("probe target setup differs")
	}
	if len(a.Oracle) > 0 {
		if e, err := relError(a.Oracle, b.Oracle); err != nil || e != 0 {
			return fmt.Errorf("oracle matrix differs")
		}
	}
	return nil
}

// sample holds one successful run's per-run metrics. nsPerAccess is CPU
// time; wallNSPerAccess is printed but not a metric (see README.md).
type sample struct {
	nsPerAccess, wallNSPerAccess, allocsPerAccess, peakMiB, traceBytesPerAccess, relErr float64
}

// endToEnd sets the workload up, then runs it one run at a time until
// --seconds have passed, checking every run.
func endToEnd(cfg *config) (*result, error) {
	ref, setupSecs, setupWall, err := setupAll(cfg)
	if err != nil {
		return nil, err
	}
	// One untimed run first, so that the timed runs find the binaries and
	// inputs in the page cache; users pay that once, not per run.
	if cfg.workload.analysis != nil {
		_, err = measureInProcess(cfg, ref)
	} else {
		_, _, err = measureProbe(cfg, ref)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	var samples []sample
	attempted, failed := 0, 0
	start := time.Now()
	for attempted < minRuns || time.Since(start).Seconds() < cfg.seconds {
		attempted++
		var s sample
		var err error
		if cfg.workload.analysis != nil {
			s, err = measureInProcess(cfg, ref)
		} else {
			s, _, err = measureProbe(cfg, ref)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: run %d failed: %v\n", attempted, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d: %.1f CPU ns/access, %.1f wall ns/access, %.4f allocs/access, %.1f MiB peak, %.4f trace bytes/access\n",
			attempted, s.nsPerAccess, s.wallNSPerAccess, s.allocsPerAccess, s.peakMiB, s.traceBytesPerAccess)
		samples = append(samples, s)
	}
	col := func(f func(sample) float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	relErr := col(func(s sample) float64 { return s.relErr })
	if cfg.workload.analysis == nil && len(samples) > 0 {
		// The probe trace is analysed once, after timing: replaying it costs
		// as much as a run.
		attempted++
		if relErr, err = probeMatrixError(cfg); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: probe trace analysis failed: %v\n", err)
		}
	}
	fmt.Printf("runs %d attempted, %d failed, failed_share %.4f\n", attempted, failed, float64(failed)/float64(attempted))
	fmt.Printf("wall time, not a metric: %.1f ns/access, setup %.3f s\n", col(func(s sample) float64 { return s.wallNSPerAccess }), median(setupWall))
	res := &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"ns_per_access":          {col(func(s sample) float64 { return s.nsPerAccess }), "ns"},
			"allocs_per_access":      {col(func(s sample) float64 { return s.allocsPerAccess }), "allocs"},
			"peak_mem_mb":            {col(func(s sample) float64 { return s.peakMiB }), "MiB"},
			"trace_bytes_per_access": {col(func(s sample) float64 { return s.traceBytesPerAccess }), "bytes"},
			"matrix_rel_error":       {relErr, "ratio"},
			"setup_s":                {median(setupSecs), "s"},
		},
	}
	return res, nil
}

// measureInProcess makes one run of an in-process workload in a fresh child
// process, so peak memory is that one run's, and checks its output.
func measureInProcess(cfg *config, ref *setupResult) (sample, error) {
	out := filepath.Join(cfg.work, "run.json")
	ru, err := spawn(cfg, "run", out)
	if err != nil {
		return sample{}, err
	}
	var r runResult
	if err := readJSON(out, &r); err != nil {
		return sample{}, err
	}
	if err := checkRun(&r, ref); err != nil {
		return sample{}, err
	}
	e, err := relError(r.Global, ref.Oracle)
	if err != nil {
		return sample{}, err
	}
	n := float64(r.Accesses)
	return sample{
		nsPerAccess:         float64(r.CPUNS) / n,
		wallNSPerAccess:     float64(r.WallNS) / n,
		allocsPerAccess:     float64(r.Mallocs) / n,
		peakMiB:             float64(ru.Maxrss) / 1024,
		traceBytesPerAccess: float64(ref.TraceBytes) / float64(ref.Accesses),
		relErr:              e,
	}, nil
}

// checkRun fails a run whose report breaks the summation law, whose access
// count differs from the stream's, or whose digest differs from the
// untimed reference run's.
func checkRun(r *runResult, ref *setupResult) error {
	if r.LawErr != "" {
		return fmt.Errorf("summation law: %s", r.LawErr)
	}
	if r.Accesses != ref.Accesses {
		return fmt.Errorf("report counts %d accesses, the stream has %d", r.Accesses, ref.Accesses)
	}
	if r.Digest != ref.Digest {
		return fmt.Errorf("report digest %.12s differs from the reference run's %.12s", r.Digest, ref.Digest)
	}
	return nil
}
