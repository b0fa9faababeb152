package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"commprof/internal/obs"
)

// This file is the incremental half of the codec: an Encoder that writes the
// binary trace format record by record, and a Decoder that reads any of the
// three format versions back the same way (DESIGN §9 has the byte-level
// spec):
//
//	v1  16-byte header (magic "CPMT", version, region count, access count),
//	    region table, fixed 29-byte access records
//	v2  20-byte header (adds thread count), regions gain file:line, same
//	    fixed records
//	v3  v2 header and region table, access section framed into CRC-checked
//	    blocks of delta/varint records (see v3.go)
//
// The point of the split is memory: replaying a recorded trace through the
// sharded pipeline only ever needs one access in flight per producer plus the
// bounded shard queues, so decoding must not materialise the whole access
// section first. A Decoder holds the region table (small, static) and one
// block buffer at most; resident memory is O(region table + one block).
//
// Error semantics are strict: any truncated or corrupt access record fails
// with a "record i of n" error (1-based, n the header's declared count), and
// a clean end before n records is reported the same way wrapping
// io.ErrUnexpectedEOF. io.EOF from Next means exactly "all n records
// decoded". NewDecoderTolerant relaxes this for salvage: decode errors end
// the stream early instead of failing, and the suppressed cause is kept for
// the caller (see DecodeTolerant).

// telemetryFlushEvery bounds how many decoded/encoded records may accumulate
// locally before the per-stream counter is published to the shared probe —
// the batching that replaces one atomic add per record.
const telemetryFlushEvery = 256

// Encoder writes a trace stream incrementally: header and region table up
// front, then one access record per Write call. The declared access count is
// part of the header, so it must be known at construction; Close verifies the
// caller delivered exactly that many records. Producers that do not know the
// count up front use DynamicEncoder instead.
type Encoder struct {
	// Probes, when non-nil, receives encode-progress telemetry (batched, one
	// publish per block or telemetryFlushEvery records). Set it before the
	// first Write call.
	Probes *obs.TraceProbes

	bw      *bufio.Writer
	version uint32
	n, i    uint32
	blk     *v3BlockWriter // v3 only
	pending uint32         // records not yet published to Probes
}

// NewEncoder writes a v1 stream header and region table to w and returns an
// encoder expecting exactly accesses Write calls.
func NewEncoder(w io.Writer, table *Table, accesses int) (*Encoder, error) {
	return NewEncoderVersion(w, table, accesses, 0, 1)
}

// NewEncoderVersion is NewEncoder for an explicit format version (1, 2 or
// 3). threads is the header thread count for v2/v3 (ignored for v1); pass
// the recorded thread count, or 0 if the caller only knows the accesses'
// max thread — decoders treat 0 as "unknown, caller supplies it".
func NewEncoderVersion(w io.Writer, table *Table, accesses, threads, version int) (*Encoder, error) {
	if version < 1 || version > 3 {
		return nil, fmt.Errorf("trace: unsupported encode version %d", version)
	}
	if table == nil {
		return nil, fmt.Errorf("trace: encoder requires a region table")
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	if accesses < 0 || uint64(accesses) >= countUnpatched {
		return nil, fmt.Errorf("trace: access count %d outside the format's range", accesses)
	}
	if threads < 0 || uint64(threads) >= countUnpatched {
		return nil, fmt.Errorf("trace: thread count %d outside the format's range", threads)
	}
	bw := bufio.NewWriter(w)
	if err := writeHeaderAndTable(bw, uint32(version), table, uint32(accesses), uint32(threads)); err != nil {
		return nil, err
	}
	e := &Encoder{bw: bw, version: uint32(version), n: uint32(accesses)}
	if e.version == codecVersion3 {
		e.blk = newV3BlockWriter()
	}
	return e, nil
}

// writeHeaderAndTable emits the stream header and region table for the given
// version: the 16-byte v1 header or the 20-byte v2/v3 one (thread count
// appended), and per region id/parent/kind/name plus file:line for v2/v3.
//
// Fixed-width fields are built in bw's free buffer space, so an encoder's
// setup allocates nothing per region.
func writeHeaderAndTable(bw *bufio.Writer, version uint32, table *Table, accesses, threads uint32) error {
	hdr := bw.AvailableBuffer()
	hdr = binary.LittleEndian.AppendUint32(hdr, codecMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(table.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, accesses)
	if version >= codecVersion2 {
		hdr = binary.LittleEndian.AppendUint32(hdr, threads)
	}
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range table.Regions {
		buf := bw.AvailableBuffer()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Parent))
		buf = append(buf, byte(r.Kind))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("trace: write region: %w", err)
		}
		if err := writeString(bw, r.Name); err != nil {
			return err
		}
		if version >= codecVersion2 {
			if err := writeString(bw, r.File); err != nil {
				return err
			}
			line := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(r.Line))
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("trace: write region line: %w", err)
			}
		}
	}
	return nil
}

// writeFixedRecord emits the fixed 29-byte v1/v2 access record, built in
// bw's free buffer space so that a record costs no allocation.
func writeFixedRecord(bw *bufio.Writer, a Access) error {
	rec := bw.AvailableBuffer()
	rec = binary.LittleEndian.AppendUint64(rec, a.Time)
	rec = binary.LittleEndian.AppendUint64(rec, a.Addr)
	rec = binary.LittleEndian.AppendUint32(rec, a.Size)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(a.Thread))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(a.Region))
	rec = append(rec, byte(a.Kind))
	_, err := bw.Write(rec)
	return err
}

// noteEncoded batches encode telemetry; published every telemetryFlushEvery
// records (v1/v2) or at each block flush (v3) and at Close.
func (e *Encoder) noteEncoded(k int) {
	if e.Probes == nil {
		return
	}
	e.pending += uint32(k)
	if e.pending >= telemetryFlushEvery {
		e.Probes.EncodedRecords.Add(uint64(e.pending))
		e.pending = 0
	}
}

func (e *Encoder) flushEncoded() {
	if e.Probes != nil && e.pending > 0 {
		e.Probes.EncodedRecords.Add(uint64(e.pending))
	}
	e.pending = 0
}

// Write appends one access record. It errors once the declared count is
// exhausted.
func (e *Encoder) Write(a Access) error {
	if e.i == e.n {
		return fmt.Errorf("trace: encode access record %d of %d: declared count exhausted", e.i+1, e.n)
	}
	if e.version == codecVersion3 {
		if err := e.blk.append(a); err != nil {
			return fmt.Errorf("trace: encode access record %d of %d: %w", e.i+1, e.n, err)
		}
		e.i++
		if e.blk.full() {
			n, err := e.blk.flush(e.bw)
			if err != nil {
				return err
			}
			e.noteEncoded(n)
			e.flushEncoded()
		}
		return nil
	}
	if err := writeFixedRecord(e.bw, a); err != nil {
		return fmt.Errorf("trace: write access record %d of %d: %w", e.i+1, e.n, err)
	}
	e.i++
	e.noteEncoded(1)
	return nil
}

// Close flushes buffered output (including a final partial v3 block). It
// errors if fewer records than declared were written — the stream on disk
// would decode as truncated.
func (e *Encoder) Close() error {
	if e.i != e.n {
		return fmt.Errorf("trace: encoded %d of %d declared access records", e.i, e.n)
	}
	if e.version == codecVersion3 {
		n, err := e.blk.flush(e.bw)
		if err != nil {
			return err
		}
		e.noteEncoded(n)
	}
	e.flushEncoded()
	return e.bw.Flush()
}

// Decoder reads a trace stream incrementally. NewDecoder consumes the header
// and region table; each Next call then decodes one access record (NextBatch
// decodes many into a caller-owned slice). The decoder never buffers more
// than one v3 block, so arbitrarily large traces replay at O(region table +
// one block) resident memory.
type Decoder struct {
	// Probes, when non-nil, receives decode-progress telemetry. Counts are
	// batched: one publish per NextBatch call, per v3 block, or per
	// telemetryFlushEvery single-record Next calls — not one atomic add per
	// record. Set it before the first Next call; nil keeps decoding
	// uninstrumented.
	Probes *obs.TraceProbes

	// Stages, when non-nil, observes each NextBatch call's wall time into the
	// decode stage-latency histogram (two monotonic-clock reads per batch, not
	// per record). Nil keeps the batch path untimed.
	Stages *obs.StageProbes

	br      *bufio.Reader
	version uint32
	table   *Table
	n, i    uint32
	threads int                // v2/v3 header thread count; 0 for v1 streams
	rec     [accessRecLen]byte // reused v1/v2 record buffer
	err     error              // sticky failure; io.EOF is not stored here
	blk     v3BlockReader      // v3 block state
	pending uint32             // decoded records not yet published to Probes

	// Salvage-mode state (NewDecoderTolerant / DecodeTolerant).
	tolerant    bool
	unfinalized bool   // header counts carried the unpatched sentinel
	nUnknown    bool   // declared record count unknown; read to a clean end
	declared    uint32 // header's access count before any tolerant rewrite
	tolErr      error  // first suppressed decode error
	maxThread   int32  // largest thread seen (tolerant mode only); -1 initially
}

// NewDecoder reads and validates the stream header and region table from r.
// All format versions are accepted: v1 (fixed counts, no thread count, no
// region source positions), v2 (thread count in the header, file:line per
// region) and v3 (v2 header, block-compressed access section). A v2/v3
// stream whose counts still hold the unpatched sentinel was never finalized
// — the recording process died before DynamicEncoder.Close — and is rejected
// here rather than silently decoded as empty.
func NewDecoder(r io.Reader) (*Decoder, error) {
	return newDecoder(r, false)
}

// NewDecoderTolerant is NewDecoder for salvage: an unfinalized v2/v3 stream
// (sentinel counts) is accepted and read to its last complete record or
// block, and decode errors surface as a clean early io.EOF instead of
// failing, with the suppressed cause kept in SalvageErr. Header and region
// table corruption is still fatal — there is nothing to salvage without a
// table.
func NewDecoderTolerant(r io.Reader) (*Decoder, error) {
	return newDecoder(r, true)
}

func newDecoder(r io.Reader, tolerant bool) (*Decoder, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != codecMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version < codecVersion || version > codecVersion3 {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nRegions := binary.LittleEndian.Uint32(hdr[8:])
	d := &Decoder{
		br:        br,
		version:   version,
		table:     NewTable(),
		n:         binary.LittleEndian.Uint32(hdr[12:]),
		tolerant:  tolerant,
		maxThread: -1,
	}
	d.declared = d.n
	if version >= codecVersion2 {
		var tc [4]byte
		if _, err := io.ReadFull(br, tc[:]); err != nil {
			return nil, fmt.Errorf("trace: read thread count: %w", err)
		}
		threads := binary.LittleEndian.Uint32(tc[:])
		if d.n == countUnpatched || threads == countUnpatched {
			if !tolerant {
				return nil, fmt.Errorf("trace: stream was never finalized (writer exited before Close; recording truncated?)")
			}
			d.unfinalized = true
			d.nUnknown = true
			d.n = 0
			d.declared = 0
			threads = 0
		}
		d.threads = int(threads)
	}
	for i := uint32(0); i < nRegions; i++ {
		var buf [9]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: read region %d: %w", i, err)
		}
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read region %d name: %w", i, err)
		}
		reg := Region{
			ID:     int32(binary.LittleEndian.Uint32(buf[0:])),
			Parent: int32(binary.LittleEndian.Uint32(buf[4:])),
			Kind:   RegionKind(buf[8]),
			Name:   name,
		}
		if version >= codecVersion2 {
			file, err := readString(br)
			if err != nil {
				return nil, fmt.Errorf("trace: read region %d file: %w", i, err)
			}
			var line [4]byte
			if _, err := io.ReadFull(br, line[:]); err != nil {
				return nil, fmt.Errorf("trace: read region %d line: %w", i, err)
			}
			reg.File = file
			reg.Line = int(binary.LittleEndian.Uint32(line[:]))
		}
		d.table.Regions = append(d.table.Regions, reg)
	}
	if err := d.table.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Table returns the decoded region table.
func (d *Decoder) Table() *Table { return d.table }

// Version returns the stream's format version (1, 2 or 3).
func (d *Decoder) Version() int { return int(d.version) }

// Threads returns the recorded thread (goroutine) count a v2/v3 stream
// carries in its header, or 0 for a v1 stream (or an unfinalized salvage),
// whose thread count the caller must know out of band.
func (d *Decoder) Threads() int { return d.threads }

// Len returns the access-record count the header declares (0 when decoding
// an unfinalized stream tolerantly — the count was never patched in).
func (d *Decoder) Len() int { return int(d.n) }

// Decoded returns how many access records have been decoded so far — the
// progress feed for live introspection of a long replay.
func (d *Decoder) Decoded() int { return int(d.i) }

// Unfinalized reports whether the header's counts carried the unpatched
// sentinel (possible only under NewDecoderTolerant).
func (d *Decoder) Unfinalized() bool { return d.unfinalized }

// DeclaredLen returns the header's access count as written, unaffected by a
// tolerant decoder truncating Len at the salvage point (0 when
// unfinalized).
func (d *Decoder) DeclaredLen() int { return int(d.declared) }

// SalvageErr returns the decode error a tolerant decoder suppressed when it
// ended the stream early, or nil if decoding ended cleanly.
func (d *Decoder) SalvageErr() error { return d.tolErr }

// SeenThreads returns max(thread)+1 over the records decoded so far in
// tolerant mode (0 otherwise) — the derived thread count a salvaged,
// unfinalized stream never had patched into its header.
func (d *Decoder) SeenThreads() int { return int(d.maxThread) + 1 }

// recErr wraps a record-level cause with "record i of n" context.
func (d *Decoder) recErr(cause error) error {
	if d.nUnknown {
		return fmt.Errorf("trace: read access record %d (count unfinalized): %w", d.i+1, cause)
	}
	return fmt.Errorf("trace: read access record %d of %d: %w", d.i+1, d.n, cause)
}

// fail records a decode failure. Strict decoders latch it sticky and return
// it; tolerant decoders keep the cause in SalvageErr and convert the failure
// into a clean end of stream.
func (d *Decoder) fail(cause error) error {
	err := d.recErr(cause)
	if d.tolerant {
		if d.tolErr == nil {
			d.tolErr = err
		}
		d.nUnknown = false
		d.n = d.i // future calls report a clean EOF
		return io.EOF
	}
	d.err = err
	return err
}

// endTolerant ends an unfinalized stream cleanly at the current record.
func (d *Decoder) endTolerant() error {
	d.nUnknown = false
	d.n = d.i
	return io.EOF
}

func (d *Decoder) noteDecoded(k int) {
	if d.Probes == nil {
		return
	}
	d.pending += uint32(k)
	if d.pending >= telemetryFlushEvery {
		d.flushDecoded()
	}
}

func (d *Decoder) flushDecoded() {
	if d.Probes != nil && d.pending > 0 {
		d.Probes.DecodedRecords.Add(uint64(d.pending))
	}
	d.pending = 0
}

// next12 decodes one fixed-size v1/v2 record.
func (d *Decoder) next12() (Access, error) {
	if _, err := io.ReadFull(d.br, d.rec[:]); err != nil {
		if err == io.EOF && d.nUnknown {
			// An unfinalized fixed-record stream that ends exactly on a
			// record boundary was cut at a clean point: salvage everything.
			return Access{}, d.endTolerant()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Access{}, d.fail(err)
	}
	return Access{
		Time:   binary.LittleEndian.Uint64(d.rec[0:]),
		Addr:   binary.LittleEndian.Uint64(d.rec[8:]),
		Size:   binary.LittleEndian.Uint32(d.rec[16:]),
		Thread: int32(binary.LittleEndian.Uint32(d.rec[20:])),
		Region: int32(binary.LittleEndian.Uint32(d.rec[24:])),
		Kind:   Kind(d.rec[28]),
	}, nil
}

// loadBlock reads and verifies the next v3 block header and payload.
func (d *Decoder) loadBlock() error {
	var hdr [v3BlockHdrLen]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		if err == io.EOF && d.nUnknown {
			// Clean end of an unfinalized stream: the writer died between
			// blocks, so every staged block was complete.
			return d.endTolerant()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return d.fail(fmt.Errorf("read block header: %w", err))
	}
	recs := binary.LittleEndian.Uint32(hdr[0:])
	plen := binary.LittleEndian.Uint32(hdr[4:])
	crc := binary.LittleEndian.Uint32(hdr[8:])
	if recs == 0 || recs > v3MaxBlockRecords {
		return d.fail(fmt.Errorf("block declares %d records (max %d)", recs, v3MaxBlockRecords))
	}
	if plen > v3MaxBlockBytes {
		return d.fail(fmt.Errorf("block declares %d payload bytes (max %d)", plen, v3MaxBlockBytes))
	}
	if !d.nUnknown && uint64(d.i)+uint64(recs) > uint64(d.n) {
		return d.fail(fmt.Errorf("block declares %d records but only %d remain", recs, d.n-d.i))
	}
	if cap(d.blk.payload) < int(plen) {
		// Grow with headroom so mild block-to-block size jitter does not
		// reallocate on every load; steady-state decode is allocation-free.
		d.blk.payload = make([]byte, plen, int(plen)+int(plen)/2+512)
	}
	d.blk.payload = d.blk.payload[:plen]
	if _, err := io.ReadFull(d.br, d.blk.payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return d.fail(fmt.Errorf("read block payload: %w", err))
	}
	if got := crc32.ChecksumIEEE(d.blk.payload); got != crc {
		return d.fail(fmt.Errorf("block checksum mismatch (header %#x, payload %#x)", crc, got))
	}
	d.blk.begin(recs)
	d.flushDecoded() // publish telemetry at block boundaries
	return nil
}

// next3 decodes one v3 record, loading the next block as needed.
func (d *Decoder) next3() (Access, error) {
	for d.blk.left == 0 {
		if err := d.loadBlock(); err != nil {
			return Access{}, err
		}
	}
	a, err := d.blk.decode()
	if err != nil {
		return Access{}, d.fail(err)
	}
	return a, nil
}

// nextRecord is the shared single-record step behind Next and NextBatch; it
// performs no telemetry.
func (d *Decoder) nextRecord() (Access, error) {
	if d.err != nil {
		return Access{}, d.err
	}
	if !d.nUnknown && d.i == d.n {
		return Access{}, io.EOF
	}
	var a Access
	var err error
	if d.version == codecVersion3 {
		a, err = d.next3()
	} else {
		a, err = d.next12()
	}
	if err != nil {
		return Access{}, err
	}
	d.i++
	if d.tolerant && a.Thread > d.maxThread {
		d.maxThread = a.Thread
	}
	return a, nil
}

// Next decodes one access record. It returns io.EOF after exactly Len
// records; a truncated or unreadable record fails with "record i of n"
// context (wrapping io.ErrUnexpectedEOF on truncation). Errors are sticky.
func (d *Decoder) Next() (Access, error) {
	a, err := d.nextRecord()
	if err != nil {
		d.flushDecoded()
		return Access{}, err
	}
	d.noteDecoded(1)
	return a, nil
}

// NextBatch decodes up to cap(buf) records into buf[:0] and returns the
// filled prefix — the bulk path the sharded replay producers feed on. The
// slice is caller-owned and reused across calls, so a steady-state batch
// performs zero allocations; batches cross v3 block boundaries to stay
// full. Telemetry is published once per call.
//
// When records were decoded, NextBatch returns them with a nil error even
// if the stream ended or failed mid-batch; the io.EOF or sticky decode
// error surfaces on the following call. An empty batch returns io.EOF or
// the failure directly.
func (d *Decoder) NextBatch(buf []Access) ([]Access, error) {
	if cap(buf) == 0 {
		return nil, fmt.Errorf("trace: NextBatch requires a buffer with non-zero capacity")
	}
	if d.Stages == nil {
		return d.nextBatchAny(buf)
	}
	t0 := time.Now()
	out, err := d.nextBatchAny(buf)
	d.Stages.Decode.Observe(uint64(time.Since(t0)))
	return out, err
}

// nextBatchAny dispatches to the per-version bulk decode.
func (d *Decoder) nextBatchAny(buf []Access) ([]Access, error) {
	if d.version == codecVersion3 {
		return d.nextBatch3(buf)
	}
	buf = buf[:0]
	for len(buf) < cap(buf) {
		a, err := d.nextRecord()
		if err != nil {
			if len(buf) == 0 {
				d.flushDecoded()
				return buf, err
			}
			break // the error stays sticky and surfaces on the next call
		}
		buf = append(buf, a)
	}
	d.noteDecoded(len(buf))
	d.flushDecoded()
	return buf, nil
}

// nextBatch3 is the v3 bulk decode: records drain straight out of the block
// buffer via decodeInto, skipping the per-record nextRecord dispatch that
// would otherwise dominate the cost of the few-ns compact records. Semantics
// are identical to the generic loop (partial batch first, error sticky on
// the following call).
func (d *Decoder) nextBatch3(buf []Access) ([]Access, error) {
	buf = buf[:0]
	for len(buf) < cap(buf) {
		if d.err != nil {
			if len(buf) == 0 {
				d.flushDecoded()
				return buf, d.err
			}
			break
		}
		if !d.nUnknown && d.i == d.n {
			if len(buf) == 0 {
				d.flushDecoded()
				return buf, io.EOF
			}
			break
		}
		if d.blk.left == 0 {
			if err := d.loadBlock(); err != nil {
				if len(buf) == 0 {
					d.flushDecoded()
					return buf, err
				}
				break
			}
			continue
		}
		want := cap(buf) - len(buf)
		if int(d.blk.left) < want {
			want = int(d.blk.left)
		}
		start := len(buf)
		k, derr := d.blk.decodeInto(buf[start : start+want])
		buf = buf[:start+k]
		d.i += uint32(k)
		if d.tolerant {
			for _, a := range buf[start:] {
				if a.Thread > d.maxThread {
					d.maxThread = a.Thread
				}
			}
		}
		if derr != nil {
			err := d.fail(derr)
			if len(buf) == 0 {
				d.flushDecoded()
				return buf, err
			}
			break
		}
	}
	d.noteDecoded(len(buf))
	d.flushDecoded()
	return buf, nil
}

// ForEach decodes every remaining record through fn, stopping on the first
// decode error or non-nil fn result.
func (d *Decoder) ForEach(fn func(Access) error) error {
	for {
		a, err := d.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(a); err != nil {
			return err
		}
	}
}
