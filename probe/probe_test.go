package probe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"commprof/internal/trace"
)

// TestShimRecordsTrace drives the process's own recorder once, through the
// package API the rewriter calls: several goroutines probe shared memory,
// Shutdown finishes a v3 trace, and the decode round-trip checks compact
// goroutine IDs, the patched counts and the temporal order. The sink is
// chosen at the first spill, so COMMPROF_TRACE is set before any probe.
func TestShimRecordsTrace(t *testing.T) {
	std = newRecorder(os.Getenv, os.Stdout, io.Discard) // a fresh process's recorder, on every -count
	path := filepath.Join(t.TempDir(), "probe.trace")
	t.Setenv("COMMPROF_TRACE", path)
	Register([]Region{
		{Name: "main", Parent: -1, File: "main.go", Line: 5},
		{Name: "main#for1", Parent: 0, Loop: true, File: "main.go", Line: 8},
	})
	var shared [4]uint64
	const workers, rounds = 3, 100

	g0 := G()
	if again := G(); again != g0 {
		t.Fatal("G() did not return a stable per-goroutine handle")
	}
	g0.W(unsafe.Pointer(&shared[0]), 8, 0)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := G()
			for i := 0; i < rounds; i++ {
				g.R(unsafe.Pointer(&shared[0]), 8, 1)
				g.W(unsafe.Pointer(&shared[1+w%3]), 8, 1)
			}
		}(w)
	}
	wg.Wait()

	Shutdown()
	Shutdown() // idempotent

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threads() != workers+1 {
		t.Fatalf("Threads() = %d, want %d", dec.Threads(), workers+1)
	}
	want := 1 + workers*rounds*2
	if dec.Len() != want {
		t.Fatalf("Len() = %d, want %d", dec.Len(), want)
	}
	if dec.Table().Len() != 2 || dec.Table().Regions[1].File != "main.go" {
		t.Fatalf("region table did not round-trip: %+v", dec.Table().Regions)
	}
	var prev uint64
	seen := map[int32]bool{}
	if err := dec.ForEach(func(a trace.Access) error {
		if a.Time <= prev {
			t.Fatalf("records out of temporal order: %d after %d", a.Time, prev)
		}
		prev = a.Time
		seen[a.Thread] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id <= workers; id++ {
		if !seen[id] {
			t.Fatalf("compact goroutine ID %d missing from trace (saw %v)", id, seen)
		}
	}

	// Probes after Shutdown must be dropped, not crash.
	g0.W(unsafe.Pointer(&shared[0]), 8, 0)
}

// env returns a getenv over a fixed map, so a test recorder never sees the
// process environment.
func env(kv map[string]string) func(string) string {
	return func(k string) string { return kv[k] }
}

// testRegions is the region table the fresh-recorder tests register.
var testRegions = []Region{
	{Name: "main", Parent: -1, File: "main.go", Line: 3},
	{Name: "main#for1", Parent: 0, Loop: true, File: "main.go", Line: 7},
	{Name: "work", Parent: -1, File: "work.go", Line: 12},
}

// newTestRecorder is a recorder with testRegions registered, the given
// environment, and its report and diagnostics captured.
func newTestRecorder(kv map[string]string) (r *recorder, out, log *bytes.Buffer) {
	out, log = &bytes.Buffer{}, &bytes.Buffer{}
	r = newRecorder(env(kv), out, log)
	r.register(testRegions)
	return r, out, log
}

// issued is one probe call as a goroutine made it.
type issued struct {
	kind   trace.Kind
	addr   uint64
	size   uint32
	region int32
}

// TestStreamOrderWall drives one recorder from several goroutines, each far
// past its batch size, so that many spills happen while the others are
// still probing. The recorded trace must be the run's exact clock order:
// times 1..N with none lost, duplicated or reordered, and each goroutine's
// own records in the order it issued them.
func TestStreamOrderWall(t *testing.T) {
	const workers, perWorker = 4, 6*batchSize + 321
	path := filepath.Join(t.TempDir(), "wall.trace")
	r, _, log := newTestRecorder(map[string]string{"COMMPROF_TRACE": path})
	var mem [64]uint64

	got := make([][]issued, workers)
	ids := make([]int32, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := r.g()
			ids[w] = g.id
			<-start
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			seq := make([]issued, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				p := unsafe.Pointer(&mem[(x>>33)%uint64(len(mem))])
				a := issued{kind: trace.Read, addr: uint64(uintptr(p)), size: uint32(1 + (x>>40)%8), region: int32((x >> 50) % 3)}
				if x>>63 == 1 {
					a.kind = trace.Write
					g.W(p, a.size, a.region)
				} else {
					g.R(p, a.size, a.region)
				}
				seq = append(seq, a)
				if i%1000 == 0 {
					runtime.Gosched()
				}
			}
			got[w] = seq
		}(w)
	}
	close(start)
	wg.Wait()
	// Every full batch spills at once, so at least five batches' worth of
	// records were merged and encoded while the goroutines still ran.
	midRun := r.sink.enc.Written()
	r.shutdown()
	if midRun < 5*batchSize {
		t.Fatalf("%d records encoded before Shutdown, want at least %d", midRun, 5*batchSize)
	}
	if log.Len() > 0 && !strings.Contains(log.String(), "recorded") {
		t.Fatalf("unexpected diagnostics: %s", log)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	const n = workers * perWorker
	if dec.Threads() != workers || dec.Len() != n {
		t.Fatalf("header declares %d goroutines and %d records, want %d and %d", dec.Threads(), dec.Len(), workers, n)
	}
	byID := map[int32][]issued{}
	var count uint64
	if err := dec.ForEach(func(a trace.Access) error {
		count++
		if a.Time != count {
			t.Fatalf("record %d has time %d: the clock order is broken", count, a.Time)
		}
		byID[a.Thread] = append(byID[a.Thread], issued{a.Kind, a.Addr, a.Size, a.Region})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("decoded %d records, want %d", count, n)
	}
	for w, id := range ids {
		rec := byID[id]
		if len(rec) != len(got[w]) {
			t.Fatalf("goroutine %d: %d records, issued %d", w, len(rec), len(got[w]))
		}
		for i := range rec {
			if rec[i] != got[w][i] {
				t.Fatalf("goroutine %d record %d = %+v, issued %+v", w, i, rec[i], got[w][i])
			}
		}
	}
}

// TestSpillAllocatesNothing pins buffer recycling: once the recorder has
// warmed up, a batch's worth of probes — one spill, merge and encode
// included — allocates nothing.
func TestSpillAllocatesNothing(t *testing.T) {
	r, _, _ := newTestRecorder(map[string]string{"COMMPROF_TRACE": filepath.Join(t.TempDir(), "allocs.trace")})
	defer r.shutdown()
	g := r.g()
	var x uint64
	p := unsafe.Pointer(&x)
	fill := func() {
		for i := 0; i < batchSize; i++ {
			g.W(p, 8, 1)
		}
	}
	for i := 0; i < 3; i++ {
		fill()
	}
	before := r.sink.enc.Written()
	allocs := testing.AllocsPerRun(10, fill)
	// One goroutine's spill has every record stamped by its watermark, so
	// each batch is encoded by the spill it triggers.
	if got := r.sink.enc.Written() - before; got != 11*batchSize {
		t.Fatalf("%d records encoded over 11 batches, want %d", got, 11*batchSize)
	}
	if allocs != 0 {
		t.Fatalf("one spill allocates %.1f times at steady state, want 0", allocs)
	}
}

// crashChildEnv marks the re-executed test binary as the crashing child.
const crashChildEnv = "PROBE_TEST_CRASH_CHILD"

// TestCrashSalvage runs a child that records through COMMPROF_TRACE past
// several spills and exits without Shutdown. Its trace must be rejected as
// unfinalized, and a tolerant decode must salvage a clock-ordered prefix
// that ends on a whole block.
func TestCrashSalvage(t *testing.T) {
	if os.Getenv(crashChildEnv) == "1" {
		Register(testRegions)
		g := G()
		var x uint64
		for i := 0; i < 3*batchSize+100; i++ {
			g.W(unsafe.Pointer(&x), 8, 1)
		}
		os.Exit(3)
	}
	path := filepath.Join(t.TempDir(), "crash.trace")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashSalvage$")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", "COMMPROF_TRACE="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child exited with %v, want status 3; output:\n%s", err, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewDecoder(bytes.NewReader(b)); err == nil {
		t.Fatal("NewDecoder accepted a trace whose writer never reached Shutdown")
	}
	dec, err := trace.NewDecoderTolerant(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Unfinalized() {
		t.Fatal("the crashed trace's header is not the unfinalized sentinel")
	}
	var count uint64
	if err := dec.ForEach(func(a trace.Access) error {
		count++
		if a.Time != count {
			t.Fatalf("salvaged record %d has time %d", count, a.Time)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("nothing salvaged from three flushed spills")
	}
	if err := dec.SalvageErr(); err != nil {
		t.Fatalf("the salvaged prefix does not end on a whole block: %v", err)
	}
}

// TestSinkErrorsSurfaceOnce covers sinks that cannot be opened: the first
// spill reports the error once, later probes stage nothing, and Shutdown
// adds no second report.
func TestSinkErrorsSurfaceOnce(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		env  map[string]string
		want string
	}{
		{"uncreatable", map[string]string{"COMMPROF_TRACE": filepath.Join(dir, "missing", "x.trace")}, "no such file"},
		{"format1", map[string]string{"COMMPROF_TRACE": filepath.Join(dir, "v1.trace"), "COMMPROF_TRACE_FORMAT": "1"}, "versions 2 and 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _, log := newTestRecorder(tc.env)
			g := r.g()
			var x uint64
			p := unsafe.Pointer(&x)
			for i := 0; i < batchSize; i++ {
				g.W(p, 8, 1)
			}
			if n := strings.Count(log.String(), "commprof/probe:"); n != 1 || !strings.Contains(log.String(), tc.want) {
				t.Fatalf("after the first spill, diagnostics = %q; want one report mentioning %q", log, tc.want)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			const more = 1 << 18 // 8 MiB of records, if they were staged
			for i := 0; i < more; i++ {
				g.W(p, 8, 1)
			}
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%d probes after the failure allocated %d bytes", more, grew)
			}
			if len(g.batch) != 0 {
				t.Fatalf("probes after the failure were staged: batch %d", len(g.batch))
			}
			r.shutdown()
			if n := strings.Count(log.String(), "commprof/probe:"); n != 1 {
				t.Fatalf("Shutdown reported again: %q", log)
			}
		})
	}
}

// TestSpillAfterShutdownIsNoOp stages a record the way a goroutine racing
// Shutdown would, after the final spill, and spills it: nothing is written
// after Close and the finished trace is unchanged.
func TestSpillAfterShutdownIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.trace")
	r, _, log := newTestRecorder(map[string]string{"COMMPROF_TRACE": path})
	g := r.g()
	var x uint64
	for i := 0; i < 100; i++ {
		g.W(unsafe.Pointer(&x), 8, 1)
	}
	r.shutdown()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.batch = append(g.batch, trace.Access{Time: r.clock.Add(1), Thread: g.id, Kind: trace.Write})
	g.mu.Unlock()
	r.mu.Lock()
	r.spillLocked(r.clock.Load())
	r.mu.Unlock()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a spill after Shutdown changed the finished trace")
	}
	if strings.Contains(log.String(), "after Close") {
		t.Fatalf("a spill after Shutdown wrote to the closed encoder: %q", log)
	}
	if len(g.batch) != 0 {
		t.Fatalf("the late record is still staged: %d", len(g.batch))
	}
}

// TestLiveModeReport runs a recorder without COMMPROF_TRACE: Shutdown
// replays the in-memory v3 trace through the sharded pipeline and prints
// the standard report. COMMPROF_SHARDS=0, what commtrace -mode live passes
// by default, means one shard per GOMAXPROCS.
func TestLiveModeReport(t *testing.T) {
	for _, tc := range []struct{ shards, want string }{
		{"2", "sharded analysis: 2 shards"},
		{"0", fmt.Sprintf("sharded analysis: %d shards", runtime.GOMAXPROCS(0))},
	} {
		t.Run("shards="+tc.shards, func(t *testing.T) {
			rep := liveReport(t, map[string]string{"COMMPROF_SHARDS": tc.shards})
			for _, want := range []string{"workload replay: 2 threads, 16392 accesses", "64 bytes communicated", "work.go:12", tc.want} {
				if !strings.Contains(rep, want) {
					t.Fatalf("live report lacks %q:\n%s", want, rep)
				}
			}
		})
	}
}

// liveReport runs two goroutines, one writing and one reading a shared
// array, through a live-mode recorder and returns the printed report.
func liveReport(t *testing.T, kv map[string]string) string {
	t.Helper()
	r, out, log := newTestRecorder(kv)
	var shared [8]uint64
	g := r.g()
	for i := range shared {
		g.W(unsafe.Pointer(&shared[i]), 8, 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := r.g()
		for rep := 0; rep < batchSize/4; rep++ {
			for i := range shared {
				h.R(unsafe.Pointer(&shared[i]), 8, 2)
			}
		}
	}()
	<-done
	r.shutdown()
	if log.Len() > 0 {
		t.Fatalf("unexpected diagnostics: %s", log)
	}
	return out.String()
}

// TestMemFileSeek pins the live buffer's WriteSeeker: an overwrite in the
// middle keeps the length, and seeks outside the buffer fail.
func TestMemFileSeek(t *testing.T) {
	var m memFile
	m.Write([]byte("abcdef"))
	if _, err := m.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	m.Write([]byte("XY"))
	if off, _ := m.Seek(0, io.SeekEnd); off != 6 || string(m.b) != "abXYef" {
		t.Fatalf("buffer %q, end %d", m.b, off)
	}
	if _, err := m.Seek(7, io.SeekStart); err == nil {
		t.Fatal("seek past the end succeeded")
	}
}
