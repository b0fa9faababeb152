package commprof

import (
	"fmt"
	"io"
	"math/rand"

	"commprof/internal/exec"
	"commprof/internal/trace"
)

// AccessKind distinguishes reads and writes in user-supplied traces.
type AccessKind uint8

const (
	// ReadAccess is a load from shared memory.
	ReadAccess AccessKind = iota
	// WriteAccess is a store to shared memory.
	WriteAccess
)

// Access is one memory operation of a user-supplied trace. Supply accesses
// in temporal order; Region is an index into the regions passed to
// ProfileTrace, or -1 for none.
type Access struct {
	Kind   AccessKind
	Addr   uint64
	Size   uint32
	Thread int32
	Region int32
	Time   uint64
}

// Region declares one static code region for trace profiling. Parent is the
// index of the enclosing region in the same slice, or -1 for a root. Loop
// regions are the hotspot granularity. File/Line optionally locate the region
// in real source (the instrumentation shim fills them); reports then label
// the region "name file.go:line".
type Region struct {
	Name   string
	Parent int32
	Loop   bool
	File   string
	Line   int
}

// buildTable converts a public region list into the internal static region
// table shared by every trace-profiling entry point.
func buildTable(regions []Region) (*trace.Table, error) {
	table := trace.NewTable()
	for _, r := range regions {
		var id int32
		if r.Loop {
			id = table.AddLoop(r.Name, r.Parent)
		} else {
			id = table.AddFunc(r.Name, r.Parent)
		}
		table.Regions[id].File = r.File
		table.Regions[id].Line = r.Line
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("commprof: invalid region list: %w", err)
	}
	return table, nil
}

// ProfileTrace runs the profiler offline over a recorded access trace,
// on the serial detector or, with AnalysisShards or Parallel, the sharded
// pipeline. An access whose thread lies outside [0,threads) or whose region
// is neither -1 nor an index into regions fails the run with an "access i"
// error.
func ProfileTrace(accesses []Access, regions []Region, threads int, opts Options) (*Report, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	table, err := buildTable(regions)
	if err != nil {
		return nil, err
	}
	s, err := newSession("trace", opts, threads, table, true)
	if err != nil {
		return nil, err
	}
	// Convert the caller's slice one batch at a time into the session's
	// reused buffer: the slice stays the only O(accesses) state.
	rest := accesses
	return s.runBatches(func(buf []trace.Access) ([]trace.Access, error) {
		if len(rest) == 0 {
			return buf[:0], io.EOF
		}
		n := min(len(rest), cap(buf))
		buf = buf[:0]
		for _, a := range rest[:n] {
			k := trace.Read
			if a.Kind == WriteAccess {
				k = trace.Write
			}
			buf = append(buf, trace.Access{
				Time: a.Time, Addr: a.Addr, Size: a.Size,
				Thread: a.Thread, Region: a.Region, Kind: k,
			})
		}
		rest = rest[n:]
		return buf, nil
	})
}

// Thread is the handle a custom workload body uses inside Run: it mirrors
// the paper's instrumentation points (memory accesses, loop entry/exit,
// synchronization).
type Thread struct {
	t *exec.Thread
}

// ID returns the thread index in [0, threads).
func (t *Thread) ID() int32 { return t.t.ID() }

// Read issues an instrumented load.
func (t *Thread) Read(addr uint64, size uint32) { t.t.Read(addr, size) }

// Write issues an instrumented store.
func (t *Thread) Write(addr uint64, size uint32) { t.t.Write(addr, size) }

// Work simulates units of uninstrumented computation.
func (t *Thread) Work(units int) { t.t.Work(units) }

// Barrier blocks until every thread reaches a barrier.
func (t *Thread) Barrier() { t.t.Barrier() }

// Acquire takes the mutex identified by lock.
func (t *Thread) Acquire(lock int) { t.t.Acquire(lock) }

// Release frees the mutex identified by lock.
func (t *Thread) Release(lock int) { t.t.Release(lock) }

// EnterRegion pushes static region id (an index into Run's regions slice).
func (t *Thread) EnterRegion(id int32) { t.t.EnterRegion(id) }

// ExitRegion pops the innermost region.
func (t *Thread) ExitRegion() { t.t.ExitRegion() }

// InRegion runs fn inside region id.
func (t *Thread) InRegion(id int32, fn func()) { t.t.InRegion(id, fn) }

// Run executes a custom workload body once per thread on the simulated
// engine with the profiler attached, and reports its communication patterns.
// regions declares the static region table; region IDs passed to
// Thread.EnterRegion are indexes into it.
func Run(threads int, regions []Region, body func(*Thread), opts Options) (*Report, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("commprof: threads must be positive, got %d", threads)
	}
	table, err := buildTable(regions)
	if err != nil {
		return nil, err
	}
	s, err := newSession("custom", opts, threads, table, false)
	if err != nil {
		return nil, err
	}
	return s.runEngine(nil, nil, func(eng *exec.Engine) (exec.Stats, error) {
		return eng.Run(func(et *exec.Thread) { body(&Thread{t: et}) })
	})
}

// newSeededRand isolates math/rand construction so the facade has a single
// seeding convention.
func newSeededRand(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 42
	}
	return rand.New(rand.NewSource(seed))
}
