package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"commprof"
	"commprof/internal/instrument"
	"commprof/internal/trace"
)

// targetDir holds the probe-record target program, relative to the
// repository root. It sits under testdata so that `go build ./...` of the
// benchmark module skips it; only the instrumenter and the pristine build
// compile it.
const targetDir = "perfbench/testdata/probetarget"

func (c *config) instBin() string     { return filepath.Join(c.work, "probe-inst.bin") }
func (c *config) pristineBin() string { return filepath.Join(c.work, "probe-pristine.bin") }

// probeSetup instruments the target with internal/instrument, writes the
// instrumented module and builds it, builds the unmodified target next to
// it, and runs the unmodified build once for the reference checksum.
func probeSetup(cfg *config) (*setupResult, error) {
	t0 := time.Now()
	res, err := instrument.Dir(filepath.Join(cfg.root, targetDir))
	if err != nil {
		return nil, err
	}
	instDir := filepath.Join(cfg.work, "probe-inst")
	if err := os.RemoveAll(instDir); err != nil {
		return nil, err
	}
	if err := instrument.WriteModule(res, instDir, cfg.root); err != nil {
		return nil, err
	}
	if err := goBuild(instDir, cfg.instBin()); err != nil {
		return nil, err
	}
	pristineDir := filepath.Join(cfg.work, "probe-pristine")
	if err := os.MkdirAll(pristineDir, 0o755); err != nil {
		return nil, err
	}
	src, err := os.ReadFile(filepath.Join(cfg.root, targetDir, "main.go"))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(pristineDir, "main.go"), src, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(pristineDir, "go.mod"), []byte("module probetarget\n\ngo 1.22\n"), 0o644); err != nil {
		return nil, err
	}
	if err := goBuild(pristineDir, cfg.pristineBin()); err != nil {
		return nil, err
	}
	pr, err := runTarget(cfg, cfg.pristineBin(), nil)
	if err != nil {
		return nil, fmt.Errorf("pristine run: %w", err)
	}
	return &setupResult{
		Seconds:   time.Since(t0).Seconds(),
		Sites:     res.Probes,
		Coalesced: res.Coalesced,
		Checksum:  pr.marker.checksum,
	}, nil
}

func goBuild(dir, out string) error {
	cmd := osexec.Command("go", "build", "-o", out, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %v\n%s", dir, err, msg)
	}
	return nil
}

// marker is what the target writes just before the probe shim's Shutdown.
type marker struct {
	unixNS     int64
	mallocs    uint64
	allocBytes uint64
	gcFraction float64 // GC share of the process's CPU time so far
	checksum   int64
	counts     []int64 // shared accesses per goroutine, as the target counts them
}

func readMarker(path string) (*marker, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := strings.Fields(string(b))
	if len(f) < 6 {
		return nil, fmt.Errorf("marker %q is too short", b)
	}
	m := &marker{}
	var errs []error
	parseInt := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		errs = append(errs, err)
		return v
	}
	m.unixNS = parseInt(f[0])
	m.mallocs = uint64(parseInt(f[1]))
	m.allocBytes = uint64(parseInt(f[2]))
	m.gcFraction, err = strconv.ParseFloat(f[3], 64)
	errs = append(errs, err)
	m.checksum = parseInt(f[4])
	for _, s := range f[5:] {
		m.counts = append(m.counts, parseInt(s))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("marker: %w", err)
	}
	return m, nil
}

// targetRun is one execution of a target binary.
type targetRun struct {
	marker *marker
	start  time.Time
	wall   time.Duration
	usage  *syscall.Rusage
}

// workSeconds is the time from process start to the marker; shutdownSeconds
// the rest, which the shim's Shutdown spends sorting and encoding.
func (r *targetRun) workSeconds() float64 {
	return float64(r.marker.unixNS-r.start.UnixNano()) / 1e9
}

func (r *targetRun) shutdownSeconds() float64 { return r.wall.Seconds() - r.workSeconds() }

// runTarget runs one target binary to completion with extra environment.
func runTarget(cfg *config, bin string, env []string) (*targetRun, error) {
	markerPath := filepath.Join(cfg.work, "probe.marker")
	if err := os.Remove(markerPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := osexec.Command(bin, strconv.FormatUint(uint64(cfg.seed), 10), markerPath)
	cmd.Env = append(childEnv(cfg), env...)
	cmd.Stderr = io.Discard
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	wall := time.Since(start)
	mk, err := readMarker(markerPath)
	if err != nil {
		return nil, err
	}
	return &targetRun{marker: mk, start: start, wall: wall, usage: cmd.ProcessState.SysUsage().(*syscall.Rusage)}, nil
}

func (c *config) probeTracePath() string { return filepath.Join(c.work, "probe.trace") }

// measureProbe makes one probe-record run: the instrumented target as a
// child process recording through COMMPROF_TRACE, the shim's default record
// path. The run fails when the program's output differs from the
// uninstrumented build's, when the trace does not decode strictly, or when
// its total or per-goroutine record counts differ from the target's own.
func measureProbe(cfg *config, ref *setupResult) (sample, *targetRun, error) {
	if err := os.Remove(cfg.probeTracePath()); err != nil && !os.IsNotExist(err) {
		return sample{}, nil, err
	}
	r, err := runTarget(cfg, cfg.instBin(), []string{"COMMPROF_TRACE=" + cfg.probeTracePath()})
	if err != nil {
		return sample{}, nil, err
	}
	if r.marker.checksum != ref.Checksum {
		return sample{}, nil, fmt.Errorf("instrumented checksum %d, uninstrumented %d", r.marker.checksum, ref.Checksum)
	}
	f, err := os.Open(cfg.probeTracePath())
	if err != nil {
		return sample{}, nil, err
	}
	defer f.Close()
	records, err := checkProbeTrace(f, r.marker.counts)
	if err != nil {
		return sample{}, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return sample{}, nil, err
	}
	n := float64(records)
	return sample{
		nsPerAccess:         float64(cpuTime(r.usage).Nanoseconds()) / n,
		wallNSPerAccess:     float64(r.wall.Nanoseconds()) / n,
		allocsPerAccess:     float64(r.marker.mallocs) / n,
		peakMiB:             float64(r.usage.Maxrss) / 1024,
		traceBytesPerAccess: float64(fi.Size()) / n,
	}, r, nil
}

// checkProbeTrace decodes a recorded trace strictly and compares its record
// counts, in total and per goroutine, with the counts the target reported.
// Goroutine IDs are assigned in first-probe order, which races between the
// two workers of a round, so per-goroutine counts compare as sorted lists.
func checkProbeTrace(r io.Reader, counts []int64) (uint64, error) {
	dec, err := trace.NewDecoder(r)
	if err != nil {
		return 0, fmt.Errorf("trace header: %w", err)
	}
	if dec.Threads() != len(counts) {
		return 0, fmt.Errorf("trace declares %d goroutines, the target ran %d", dec.Threads(), len(counts))
	}
	got := make([]int64, len(counts))
	var total uint64
	batch := make([]trace.Access, 0, 1024)
	for {
		batch, err = dec.NextBatch(batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
		for _, a := range batch {
			if a.Thread < 0 || int(a.Thread) >= len(got) {
				return 0, fmt.Errorf("trace record %d has goroutine %d of %d", total, a.Thread, len(got))
			}
			got[a.Thread]++
			total++
		}
	}
	var want int64
	for _, c := range counts {
		want += c
	}
	if int64(total) != want {
		return 0, fmt.Errorf("trace holds %d records, the target made %d accesses", total, want)
	}
	wantSorted := slices.Clone(counts)
	slices.Sort(got)
	slices.Sort(wantSorted)
	if !slices.Equal(got, wantSorted) {
		return 0, fmt.Errorf("per-goroutine record counts %v differ from the target's %v", got, wantSorted)
	}
	return total, nil
}

// probeMatrixError replays the last recorded probe trace with default
// Options and returns the report's distance from the exact oracle over the
// same records. It runs once per invocation, after timing.
func probeMatrixError(cfg *config) (float64, error) {
	b, err := os.ReadFile(cfg.probeTracePath())
	if err != nil {
		return 0, err
	}
	s, threads, err := decodeTrace(b)
	if err != nil {
		return 0, err
	}
	o := newOracle(threads)
	for _, a := range s.Accesses {
		if err := o.observe(a); err != nil {
			return 0, err
		}
	}
	rep, err := commprof.Replay(bytes.NewReader(b), 0, commprof.Options{})
	if err != nil {
		return 0, err
	}
	if err := checkSummationLaw(rep); err != nil {
		return 0, err
	}
	if rep.Accesses != o.count {
		return 0, fmt.Errorf("replay counts %d accesses, the trace has %d", rep.Accesses, o.count)
	}
	return relError(rep.Global.Bytes, o.matrix)
}

// decodeTrace decodes a whole trace strictly and returns it with the
// goroutine count its header declares.
func decodeTrace(b []byte) (*trace.Stream, int, error) {
	dec, err := trace.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	s := &trace.Stream{Table: dec.Table()}
	err = dec.ForEach(func(a trace.Access) error {
		s.Accesses = append(s.Accesses, a)
		return nil
	})
	return s, dec.Threads(), err
}
