package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"commprof/internal/obs"
)

// DynamicEncoder writes a v2 or v3 trace stream for producers that do not
// know the access or thread count up front — the real-program
// instrumentation shim, which discovers goroutines as they first touch
// shared memory and records until the program exits. The header is written
// immediately with both counts set to the unpatched sentinel; Close seeks
// back and patches the final values in place. A stream whose writer died
// before Close therefore still carries the sentinel, and NewDecoder rejects
// it as never finalized instead of decoding a truncated prefix as a
// complete run (NewDecoderTolerant salvages it on request).
//
// Unlike the v1 Encoder, record writes are unbounded (up to the format's
// uint32 capacity) and each region's File/Line source position is persisted.
type DynamicEncoder struct {
	// Probes, when non-nil, receives encode-progress telemetry (batched, one
	// publish per flushed block or telemetryFlushEvery records). Set it
	// before the first Write call.
	Probes *obs.TraceProbes

	ws        io.WriteSeeker
	bw        *bufio.Writer
	version   uint32
	blk       *v3BlockWriter // v3 only
	i         uint32
	pending   uint32
	maxThread int32 // largest Access.Thread seen; -1 before the first record
	threads   int   // explicit SetThreads override, 0 = derive from records
	closed    bool
	err       error // sticky failure
}

// NewDynamicEncoder writes a stream header (with sentinel counts) and region
// table to ws and returns an encoder accepting any number of Write calls in
// the default on-disk format, v3. ws must be seekable so Close can patch the
// header; a plain file is.
func NewDynamicEncoder(ws io.WriteSeeker, table *Table) (*DynamicEncoder, error) {
	return NewDynamicEncoderVersion(ws, table, codecVersion3)
}

// NewDynamicEncoderVersion is NewDynamicEncoder with an explicit format
// version: 2 (fixed 29-byte records) or 3 (compact delta/varint blocks).
// Both share the 20-byte patched-at-Close header, so salvage and replay
// treat them alike; v1 has no sentinel and cannot be written dynamically.
func NewDynamicEncoderVersion(ws io.WriteSeeker, table *Table, version int) (*DynamicEncoder, error) {
	if version != codecVersion2 && version != codecVersion3 {
		return nil, fmt.Errorf("trace: dynamic encoder supports versions 2 and 3, not %d", version)
	}
	if table == nil {
		return nil, fmt.Errorf("trace: encoder requires a region table")
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(ws)
	if err := writeHeaderAndTable(bw, uint32(version), table, countUnpatched, countUnpatched); err != nil {
		return nil, err
	}
	e := &DynamicEncoder{ws: ws, bw: bw, version: uint32(version), maxThread: -1}
	if e.version == codecVersion3 {
		e.blk = newV3BlockWriter()
	}
	return e, nil
}

// SetThreads declares the final thread count explicitly (e.g. the number of
// registered goroutines, which may exceed the number that issued accesses).
// Close patches the larger of this and the derived max(Access.Thread)+1.
func (e *DynamicEncoder) SetThreads(n int) {
	if n > e.threads {
		e.threads = n
	}
}

func (e *DynamicEncoder) noteEncoded(k int) {
	if e.Probes == nil {
		return
	}
	e.pending += uint32(k)
	if e.pending >= telemetryFlushEvery {
		e.flushEncoded()
	}
}

func (e *DynamicEncoder) flushEncoded() {
	if e.Probes != nil && e.pending > 0 {
		e.Probes.EncodedRecords.Add(uint64(e.pending))
	}
	e.pending = 0
}

// Write appends one access record.
func (e *DynamicEncoder) Write(a Access) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if a.Thread < 0 {
		return fmt.Errorf("trace: access record %d has negative thread %d", e.i+1, a.Thread)
	}
	if e.i >= countUnpatched-1 {
		e.err = fmt.Errorf("trace: access count exceeds the format's capacity (%d records)", uint32(countUnpatched-1))
		return e.err
	}
	if e.version == codecVersion3 {
		if err := e.blk.append(a); err != nil {
			e.err = fmt.Errorf("trace: encode access record %d: %w", e.i+1, err)
			return e.err
		}
		e.i++
		if e.blk.full() {
			n, err := e.blk.flush(e.bw)
			if err != nil {
				e.err = err
				return e.err
			}
			e.noteEncoded(n)
			e.flushEncoded()
		}
	} else {
		if err := writeFixedRecord(e.bw, a); err != nil {
			e.err = fmt.Errorf("trace: write access record %d: %w", e.i+1, err)
			return e.err
		}
		e.i++
		e.noteEncoded(1)
	}
	if a.Thread > e.maxThread {
		e.maxThread = a.Thread
	}
	return nil
}

// Flush writes the buffered output through to the underlying writer. It
// neither closes the current v3 block nor patches the header, so the stream
// stays unfinalized: a writer that dies after Flush leaves every block
// completed before it on disk, for NewDecoderTolerant to salvage.
func (e *DynamicEncoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: flush after Close")
	}
	if err := e.bw.Flush(); err != nil {
		e.err = fmt.Errorf("trace: flush: %w", err)
		return e.err
	}
	return nil
}

// Written returns the number of access records written so far.
func (e *DynamicEncoder) Written() int { return int(e.i) }

// Close flushes buffered output (including a final partial v3 block) and
// patches the header's access and thread counts in place — the step that
// finalizes the stream. Until it succeeds the header still carries the
// unpatched sentinel and NewDecoder rejects the stream, which is exactly
// the safety property a crash mid-recording needs.
func (e *DynamicEncoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: already closed")
	}
	e.closed = true
	if e.version == codecVersion3 {
		n, err := e.blk.flush(e.bw)
		if err != nil {
			e.err = err
			return e.err
		}
		e.noteEncoded(n)
	}
	e.flushEncoded()
	if err := e.bw.Flush(); err != nil {
		e.err = fmt.Errorf("trace: flush: %w", err)
		return e.err
	}
	threads := e.threads
	if derived := int(e.maxThread) + 1; derived > threads {
		threads = derived
	}
	var counts [8]byte
	binary.LittleEndian.PutUint32(counts[0:], e.i)
	binary.LittleEndian.PutUint32(counts[4:], uint32(threads))
	if _, err := e.ws.Seek(12, io.SeekStart); err != nil {
		e.err = fmt.Errorf("trace: seek to patch header: %w", err)
		return e.err
	}
	if _, err := e.ws.Write(counts[:]); err != nil {
		e.err = fmt.Errorf("trace: patch header counts: %w", err)
		return e.err
	}
	if _, err := e.ws.Seek(0, io.SeekEnd); err != nil {
		e.err = fmt.Errorf("trace: seek back after patch: %w", err)
		return e.err
	}
	return nil
}
