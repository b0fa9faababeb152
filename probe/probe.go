// Package probe is the runtime shim linked into source-instrumented Go
// programs (see internal/instrument and cmd/commtrace). The rewriter injects
// three kinds of calls into a target package:
//
//   - Register, from a generated init function, declaring the static region
//     table (functions and loops with their file:line positions);
//   - G, at the top of each instrumented function body, resolving the
//     calling goroutine's probe handle (assigning a compact goroutine ID on
//     first use);
//   - TG.R / TG.W, before each instrumented statement, recording one shared
//     memory access as (kind, address, size, goroutine, static region).
//
// Records carry a logical timestamp from one global atomic clock, giving the
// total order Algorithm 1 requires, and batch per goroutine so the hot path
// is an uncontended mutex and a slice append. The shim streams: whenever a
// goroutine's batch fills, it spills. A spill reads the clock as a
// watermark, takes every goroutine's staged records, and merges the ones
// stamped at or before the watermark into a v3 trace encoder in clock
// order. Later records wait for the next spill. Resident memory is
// O(goroutines × batch), never O(accesses), and exit has no reordering
// pass to make.
//
// The encoder's sink is chosen at the first spill. With COMMPROF_TRACE=path
// (record mode) it is that file, flushed on every spill, so a run that dies
// before Shutdown leaves whole v3 blocks that commtrace -mode recover
// salvages (COMMPROF_TRACE_FORMAT=2 picks the fixed-record v2 layout). By
// default (live mode) it is an in-memory buffer of about one byte per
// access, which Shutdown replays through the sharded analysis pipeline to
// print the standard report. A sink that cannot be opened is reported once
// on stderr, and the shim then drops records instead of staging them.
//
// Shutdown — injected as a defer in main.main — makes the final spill,
// patches the header's access and goroutine counts (neither is known up
// front) and finishes the sink. Accesses issued by goroutines that outlive
// main are dropped, not recorded.
package probe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"commprof"
	"commprof/internal/trace"
)

// batchSize is each goroutine's staging buffer in records; a full buffer
// triggers a spill.
const batchSize = 8192

// std is the process's recorder, the one the rewriter's calls reach.
var std = newRecorder(os.Getenv, os.Stdout, os.Stderr)

// recorder is the shim's whole state. The lock order is mu, then a TG's mu;
// nothing else is held across either.
type recorder struct {
	clock   atomic.Uint64
	stopped atomic.Bool // probes return at once: after Shutdown or a sink failure
	handles sync.Map    // goid (uint64) → *TG
	once    sync.Once

	getenv   func(string) string
	out, log io.Writer // live report; diagnostics

	mu     sync.Mutex // guards the fields below
	table  *trace.Table
	all    []*TG
	opened bool             // the first spill chose the sink
	sink   *sink            // nil before the first spill, after a failure and after Shutdown
	free   [][]trace.Access // recycled batch buffers
	runs   []run            // merge scratch: the records one spill took
	heap   []int32          // merge scratch: indices into runs, by head time
}

func newRecorder(getenv func(string) string, out, log io.Writer) *recorder {
	return &recorder{getenv: getenv, out: out, log: log, table: trace.NewTable()}
}

// run is one clock-ordered slice of a goroutine's staged records.
type run struct {
	owner   *TG
	buf     []trace.Access
	pos     int  // next unmerged record
	recycle bool // buf is a batch buffer, not the owner's carry
}

// Region declares one static region to Register; a mirror of the public
// commprof.Region so instrumented programs need only this package's API.
type Region struct {
	Name   string
	Parent int32 // index of the enclosing region, or -1 for roots
	Loop   bool
	File   string
	Line   int
}

// Register installs the instrumented package's static region table. The
// rewriter emits exactly one Register call in a generated init function, so
// it runs before main and before any probe; the table is written to the
// sink at the first spill.
func Register(regions []Region) { std.register(regions) }

func (r *recorder) register(regions []Region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, reg := range regions {
		var id int32
		if reg.Loop {
			id = r.table.AddLoop(reg.Name, reg.Parent)
		} else {
			id = r.table.AddFunc(reg.Name, reg.Parent)
		}
		r.table.Regions[id].File = reg.File
		r.table.Regions[id].Line = reg.Line
	}
}

// TG is one goroutine's probe handle: its compact thread ID and staging
// batch. The owning goroutine is the only appender; the mutex serializes it
// against spills, which take the batch from other goroutines.
type TG struct {
	r     *recorder
	id    int32
	mu    sync.Mutex
	batch []trace.Access // guarded by mu

	// carry holds records a spill took but stamped after its watermark;
	// spare is the buffer the next spill's carry is built in. Both are
	// guarded by r.mu.
	carry, spare []trace.Access
}

// G returns the calling goroutine's handle, assigning the next compact
// goroutine ID on first use. The rewriter injects one G call per instrumented
// function body, so the runtime.Stack goid parse is paid per call, not per
// memory access.
func G() *TG { return std.g() }

func (r *recorder) g() *TG {
	id := goid()
	if h, ok := r.handles.Load(id); ok {
		return h.(*TG)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.handles.Load(id); ok {
		return h.(*TG)
	}
	g := &TG{r: r, id: int32(len(r.all)), batch: r.buffer()}
	r.all = append(r.all, g)
	r.handles.Store(id, g)
	return g
}

// goid parses the current goroutine's runtime ID from the runtime.Stack
// header ("goroutine N [running]:"). There is no public accessor; this is
// the standard portable fallback.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// R records a read of size bytes at p inside static region.
func (g *TG) R(p unsafe.Pointer, size uint32, region int32) {
	g.record(trace.Read, p, size, region)
}

// W records a write of size bytes at p inside static region.
func (g *TG) W(p unsafe.Pointer, size uint32, region int32) {
	g.record(trace.Write, p, size, region)
}

// record stamps and stages one access. The clock ticks under g.mu, so a
// spill that reads the clock and then locks g.mu sees every record of g's
// stamped at or before that reading.
func (g *TG) record(kind trace.Kind, p unsafe.Pointer, size uint32, region int32) {
	r := g.r
	if r.stopped.Load() {
		return
	}
	g.mu.Lock()
	g.batch = append(g.batch, trace.Access{
		Time:   r.clock.Add(1),
		Addr:   uint64(uintptr(p)),
		Size:   size,
		Thread: g.id,
		Region: region,
		Kind:   kind,
	})
	// A filled batch stays in place: its owner spills next and appends
	// nothing until then, and the spill swaps in a recycled buffer.
	filled := len(g.batch) >= batchSize
	g.mu.Unlock()
	if filled {
		r.mu.Lock()
		r.spillLocked(r.clock.Load())
		r.mu.Unlock()
	}
}

// buffer returns an empty batch buffer, recycled when one is free; the
// caller holds r.mu.
func (r *recorder) buffer() []trace.Access {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return b
	}
	return make([]trace.Access, 0, batchSize)
}

// spillLocked encodes every staged record stamped at or before watermark,
// in clock order; the caller holds r.mu. Every goroutine that ticked at or
// before the watermark was registered before that tick, and its record was
// appended under its mu before the tick's lock was released; so once the
// spill has taken each goroutine's batches, it holds all of them, and the
// merged output is exactly the global clock order. Records stamped later
// stay behind in their owner's carry for the next spill.
func (r *recorder) spillLocked(watermark uint64) {
	if !r.opened {
		r.opened = true
		s, err := r.openSink()
		if err != nil {
			r.fail(err)
		} else {
			r.sink = s
		}
	}
	r.take()
	if r.sink != nil {
		if err := r.merge(watermark); err != nil {
			r.fail(err)
		}
	}
	for i := range r.runs {
		rn := &r.runs[i]
		if r.sink != nil && rn.pos < len(rn.buf) {
			rn.owner.spare = append(rn.owner.spare, rn.buf[rn.pos:]...)
		}
		if rn.recycle {
			r.free = append(r.free, rn.buf[:0])
		}
		*rn = run{}
	}
	r.runs = r.runs[:0]
	for _, g := range r.all {
		g.carry, g.spare = g.spare, g.carry[:0]
	}
}

// take moves every goroutine's carry and batch into r.runs, oldest first
// per goroutine, and gives each goroutine whose batch it took a recycled
// one.
func (r *recorder) take() {
	for _, g := range r.all {
		if len(g.carry) > 0 {
			r.runs = append(r.runs, run{owner: g, buf: g.carry})
		}
		g.mu.Lock()
		if len(g.batch) > 0 {
			r.runs = append(r.runs, run{owner: g, buf: g.batch, recycle: true})
			g.batch = r.buffer()
		}
		g.mu.Unlock()
	}
}

// merge writes the records of r.runs stamped at or before watermark to the
// sink in clock order: a k-way merge over a min-heap of runs by head time
// that copies from the head run until it passes the next run's head.
func (r *recorder) merge(watermark uint64) error {
	h := r.heap[:0]
	for i := range r.runs {
		if r.runs[i].buf[0].Time <= watermark {
			h = append(h, int32(i))
		}
	}
	r.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	enc := r.sink.enc
	for len(r.heap) > 0 {
		rn := &r.runs[r.heap[0]]
		bound := watermark
		if next := r.second(); next < bound {
			bound = next
		}
		for rn.pos < len(rn.buf) && rn.buf[rn.pos].Time <= bound {
			if err := enc.Write(rn.buf[rn.pos]); err != nil {
				return err
			}
			rn.pos++
		}
		if rn.pos == len(rn.buf) || rn.buf[rn.pos].Time > watermark {
			last := len(r.heap) - 1
			r.heap[0] = r.heap[last]
			r.heap = r.heap[:last]
		}
		r.down(0)
	}
	return enc.Flush()
}

// head is the time of run i's next record.
func (r *recorder) head(i int32) uint64 {
	rn := &r.runs[i]
	return rn.buf[rn.pos].Time
}

// second is the smallest head time among the heap's other runs, the bound
// up to which the top run can be copied without comparing.
func (r *recorder) second() uint64 {
	next := uint64(math.MaxUint64)
	for _, c := range [2]int{1, 2} {
		if c < len(r.heap) {
			next = min(next, r.head(r.heap[c]))
		}
	}
	return next
}

// down restores the heap property below position i.
func (r *recorder) down(i int) {
	h := r.heap
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && r.head(h[c]) < r.head(h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// fail reports a sink error once and stops recording: later probes return
// before staging anything. The caller holds r.mu.
func (r *recorder) fail(err error) {
	fmt.Fprintf(r.log, "commprof/probe: %v; dropping the run's accesses\n", err)
	r.stopped.Store(true)
	if r.sink != nil && r.sink.file != nil {
		r.sink.file.Close()
	}
	r.sink = nil
}

// sink is where spills encode: a trace file in record mode, an in-memory
// v3 buffer in live mode.
type sink struct {
	enc  *trace.DynamicEncoder
	file *os.File // record mode
	path string
	mem  *memFile // live mode
}

// openSink opens record mode's trace file when COMMPROF_TRACE names one,
// and live mode's in-memory buffer otherwise.
func (r *recorder) openSink() (*sink, error) {
	path := r.getenv("COMMPROF_TRACE")
	if path == "" {
		mem := &memFile{}
		enc, err := trace.NewDynamicEncoder(mem, r.table)
		if err != nil {
			return nil, err
		}
		return &sink{enc: enc, mem: mem}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc, err := trace.NewDynamicEncoderVersion(f, r.table, r.envInt("COMMPROF_TRACE_FORMAT", 3))
	if err != nil {
		f.Close()
		return nil, err
	}
	return &sink{enc: enc, file: f, path: path}, nil
}

// Shutdown finalizes the run: it stops recording, spills every staged
// record, patches the trace header's counts, and then either closes the
// trace file (record mode) or analyses the run in-process and prints the
// report to stdout (live mode). The rewriter injects it as the first defer
// of main.main; calling it again is a no-op.
func Shutdown() { std.shutdown() }

func (r *recorder) shutdown() {
	r.once.Do(func() {
		r.stopped.Store(true)
		r.mu.Lock()
		r.spillLocked(math.MaxUint64)
		s, goroutines := r.sink, len(r.all)
		r.sink = nil // a spill racing past this point drops its records
		r.mu.Unlock()
		if s == nil {
			return // the failure was reported when it happened
		}
		s.enc.SetThreads(goroutines)
		var err error
		if s.file != nil {
			err = r.finishRecord(s, goroutines)
		} else {
			err = r.live(s, goroutines)
		}
		if err != nil {
			fmt.Fprintln(r.log, "commprof/probe:", err)
		}
	})
}

// finishRecord finalizes the trace file. Until the header is patched it
// carries the unfinalized sentinel, so a recording that died mid-run is
// detectably truncated rather than silently short.
func (r *recorder) finishRecord(s *sink, goroutines int) error {
	if err := s.enc.Close(); err != nil {
		s.file.Close()
		return err
	}
	if err := s.file.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "commprof/probe: recorded %d accesses from %d goroutines to %s\n",
		s.enc.Written(), goroutines, s.path)
	return nil
}

// live replays the in-memory v3 trace through the sharded pipeline and
// prints the standard report, so an instrumented binary is useful
// stand-alone.
func (r *recorder) live(s *sink, goroutines int) error {
	if err := s.enc.Close(); err != nil {
		return err
	}
	if goroutines == 0 {
		fmt.Fprintln(r.log, "commprof/probe: no instrumented accesses recorded")
		return nil
	}
	opts := commprof.Options{
		AnalysisShards:      r.envInt("COMMPROF_SHARDS", 0),
		PhaseWindow:         uint64(r.envInt("COMMPROF_PHASES", 0)),
		GranularityBits:     uint(r.envInt("COMMPROF_GRANULARITY", 0)),
		RedundancyCacheBits: uint(r.envInt("COMMPROF_REDUNDANCY_BITS", 0)),
	}
	if opts.AnalysisShards == 0 {
		opts.AnalysisShards = runtime.GOMAXPROCS(0) // as ProfileTraceParallel defaults it
	}
	if slots := r.envInt("COMMPROF_SIG", 0); slots > 0 {
		opts.SignatureSlots = uint64(slots)
	}
	// COMMPROF_TIMELINE=path records the analysis's execution timeline and
	// writes it as Chrome/Perfetto trace-event JSON alongside the report.
	timelinePath := r.getenv("COMMPROF_TIMELINE")
	var tel *commprof.Telemetry
	if timelinePath != "" {
		tel = commprof.NewTelemetry()
		tel.EnableTimeline()
		opts.Telemetry = tel
	}
	rep, err := commprof.Replay(bytes.NewReader(s.mem.b), 0, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(r.out, rep.Summary())
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		err = tel.WriteTimeline(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(r.log, "commprof/probe: wrote execution timeline to %s\n", timelinePath)
	}
	return nil
}

// memFile is an in-memory io.WriteSeeker: live mode's trace buffer, whose
// header the encoder patches in place at Close as it would a file's.
type memFile struct {
	b   []byte
	off int
}

func (m *memFile) Write(p []byte) (int, error) {
	n := copy(m.b[m.off:], p)
	m.b = append(m.b, p[n:]...)
	m.off += len(p)
	return len(p), nil
}

func (m *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += int64(m.off)
	case io.SeekEnd:
		offset += int64(len(m.b))
	default:
		return 0, errors.New("probe: invalid whence")
	}
	if offset < 0 || offset > int64(len(m.b)) {
		return 0, errors.New("probe: seek outside the buffer")
	}
	m.off = int(offset)
	return offset, nil
}

// envInt reads an integer environment knob, falling back on absence or a
// parse failure.
func (r *recorder) envInt(name string, fallback int) int {
	v := r.getenv(name)
	if v == "" {
		return fallback
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		fmt.Fprintf(r.log, "commprof/probe: ignoring %s=%q: %v\n", name, v, err)
		return fallback
	}
	return n
}
