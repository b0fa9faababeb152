package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Codec v3: the compact block format. The header and region table are laid
// out exactly like v2 (thread count in the header, file:line per region),
// but the access section is a sequence of framed blocks instead of fixed
// 29-byte records:
//
//	block header  12 bytes: record count, payload length, CRC32 (IEEE) of
//	              the payload
//	payload       record-count variable-length records
//
// Each record starts with a one-byte tag; the remaining fields appear only
// when the matching tag bit says the value is not predicted:
//
//	bit 0  kind is Write (Read otherwise)
//	bit 1  thread equals the previous record's thread (else uvarint thread)
//	bit 2  time equals the per-thread stride prediction (else svarint delta)
//	bit 3  addr equals the per-thread stride prediction (else svarint delta)
//	bit 4  size equals the thread's previous size (else uvarint size)
//	bit 5  region equals the thread's previous region (else svarint region)
//	bits 6-7 reserved, must be zero
//
// Stride prediction: each thread carries (lastTime, timeStride, lastAddr,
// addrStride); the predicted value is last+stride, and after every record
// stride is updated to the realised delta. All delta arithmetic is modulo
// 2^64, so arbitrary values round-trip exactly. A thread's first record in
// a block predicts from the fresh context (last 0, stride 0, size 0, region
// NoRegion). Deltas use the standard zig-zag signed varint encoding.
//
// Contexts reset at every block boundary, which makes each block
// self-contained: a CRC-verified block decodes independently of its
// predecessors, so a truncated tail costs at most one partial block
// (the salvage property DecodeTolerant relies on).
//
// The common record — same thread as its predecessor, time and addr on
// stride, size and region unchanged — is a single tag byte; a thread
// switch adds one or two more. That is the 29 → ~2-4 byte win.

const (
	// v3BlockRecords is the encoder's flush threshold: a block closes after
	// this many records. Worst-case record size is 1+3+10+10+5+10 bytes, so
	// a full block stays well under v3MaxBlockBytes.
	v3BlockRecords = 4096
	// v3MaxBlockRecords caps a decoded block's declared record count; the
	// count is untrusted input.
	v3MaxBlockRecords = 1 << 16
	// v3MaxBlockBytes caps a decoded block's declared payload length.
	v3MaxBlockBytes = 1 << 20
	// v3MaxThreads caps Access.Thread in the v3 format (encode and decode).
	v3MaxThreads = 1 << 16
	// v3BlockHdrLen is the framed block header length.
	v3BlockHdrLen = 12
)

// Record tag bits.
const (
	v3TagWrite      = 1 << 0
	v3TagSameThread = 1 << 1
	v3TagTimePred   = 1 << 2
	v3TagAddrPred   = 1 << 3
	v3TagSameSize   = 1 << 4
	v3TagSameRegion = 1 << 5
	v3TagReserved   = 0xC0
)

// v3Ctx is one thread's prediction context. Contexts are epoch-tagged so a
// block boundary resets every thread in O(1) (bump the epoch) instead of
// clearing the whole table.
type v3Ctx struct {
	epoch      uint32
	lastTime   uint64
	timeStride uint64
	lastAddr   uint64
	addrStride uint64
	size       uint32
	region     int32
}

// v3Ctxs is the shared per-thread context table (encoder and decoder sides
// carry one each; the two stay in lockstep by construction).
type v3Ctxs struct {
	ctxs       []v3Ctx
	epoch      uint32
	prevThread int32
	hasPrev    bool
}

// reset starts a new block: every context is logically fresh.
func (t *v3Ctxs) reset() {
	t.epoch++
	t.hasPrev = false
}

// ctx returns thread's context, freshly initialised if it has not been
// touched this block. thread must already be range-checked.
func (t *v3Ctxs) ctx(thread int32) *v3Ctx {
	if int(thread) >= len(t.ctxs) {
		// Amortized growth: a stream's goroutines appear one at a time.
		// Slots past the old length are zero, so epoch 0 marks them fresh.
		t.ctxs = slices.Grow(t.ctxs, int(thread)+1-len(t.ctxs))[:thread+1]
	}
	c := &t.ctxs[thread]
	if c.epoch != t.epoch {
		*c = v3Ctx{epoch: t.epoch, region: NoRegion}
	}
	return c
}

// update folds a decoded/encoded record into its thread context.
func (c *v3Ctx) update(a Access) {
	c.timeStride = a.Time - c.lastTime
	c.lastTime = a.Time
	c.addrStride = a.Addr - c.lastAddr
	c.lastAddr = a.Addr
	c.size = a.Size
	c.region = a.Region
}

// v3BlockWriter stages one block's worth of compact records.
type v3BlockWriter struct {
	payload []byte
	recs    uint32
	hdr     [v3BlockHdrLen]byte // framing scratch: a local would escape through io.Writer
	v3Ctxs
}

func newV3BlockWriter() *v3BlockWriter {
	w := &v3BlockWriter{}
	w.reset()
	return w
}

// append encodes one access into the staged payload.
func (w *v3BlockWriter) append(a Access) error {
	if a.Thread < 0 || a.Thread >= v3MaxThreads {
		return fmt.Errorf("trace: v3 record thread %d outside [0, %d)", a.Thread, v3MaxThreads)
	}
	if a.Kind != Read && a.Kind != Write {
		return fmt.Errorf("trace: v3 record kind %d not encodable (read/write only)", a.Kind)
	}
	c := w.ctx(a.Thread)
	predTime := c.lastTime + c.timeStride
	predAddr := c.lastAddr + c.addrStride
	tag := byte(0)
	if a.Kind == Write {
		tag |= v3TagWrite
	}
	if w.hasPrev && a.Thread == w.prevThread {
		tag |= v3TagSameThread
	}
	if a.Time == predTime {
		tag |= v3TagTimePred
	}
	if a.Addr == predAddr {
		tag |= v3TagAddrPred
	}
	if a.Size == c.size {
		tag |= v3TagSameSize
	}
	if a.Region == c.region {
		tag |= v3TagSameRegion
	}
	w.payload = append(w.payload, tag)
	if tag&v3TagSameThread == 0 {
		w.payload = binary.AppendUvarint(w.payload, uint64(uint32(a.Thread)))
	}
	if tag&v3TagTimePred == 0 {
		w.payload = binary.AppendVarint(w.payload, int64(a.Time-predTime))
	}
	if tag&v3TagAddrPred == 0 {
		w.payload = binary.AppendVarint(w.payload, int64(a.Addr-predAddr))
	}
	if tag&v3TagSameSize == 0 {
		w.payload = binary.AppendUvarint(w.payload, uint64(a.Size))
	}
	if tag&v3TagSameRegion == 0 {
		w.payload = binary.AppendVarint(w.payload, int64(a.Region))
	}
	c.update(a)
	w.prevThread = a.Thread
	w.hasPrev = true
	w.recs++
	return nil
}

// full reports whether the staged block has reached the flush threshold.
func (w *v3BlockWriter) full() bool { return w.recs >= v3BlockRecords }

// flush frames the staged payload (header + CRC) into out and resets the
// writer for the next block. A no-op on an empty stage. Returns the number
// of records flushed.
func (w *v3BlockWriter) flush(out io.Writer) (int, error) {
	if w.recs == 0 {
		return 0, nil
	}
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], w.recs)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(w.payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(w.payload))
	if _, err := out.Write(hdr); err != nil {
		return 0, fmt.Errorf("trace: write block header: %w", err)
	}
	if _, err := out.Write(w.payload); err != nil {
		return 0, fmt.Errorf("trace: write block payload: %w", err)
	}
	n := int(w.recs)
	w.payload = w.payload[:0]
	w.recs = 0
	w.reset()
	return n, nil
}

// v3BlockReader decodes records out of one verified block payload.
type v3BlockReader struct {
	payload []byte
	pos     int
	left    uint32 // records remaining in the current block
	v3Ctxs
}

// begin installs a freshly read payload of recs records.
func (r *v3BlockReader) begin(recs uint32) {
	r.pos = 0
	r.left = recs
	r.reset()
}

func (r *v3BlockReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n == 0 {
		return 0, fmt.Errorf("varint truncated at block offset %d", r.pos)
	}
	if n < 0 {
		return 0, fmt.Errorf("varint at block offset %d overflows 64 bits", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *v3BlockReader) svarint() (int64, error) {
	v, n := binary.Varint(r.payload[r.pos:])
	if n == 0 {
		return 0, fmt.Errorf("varint truncated at block offset %d", r.pos)
	}
	if n < 0 {
		return 0, fmt.Errorf("varint at block offset %d overflows 64 bits", r.pos)
	}
	r.pos += n
	return v, nil
}

// decode parses the next record of the current block. Errors are bare
// causes; the Decoder wraps them with "record i of n" context.
func (r *v3BlockReader) decode() (Access, error) {
	if r.pos >= len(r.payload) {
		return Access{}, fmt.Errorf("block payload exhausted with %d records undecoded", r.left)
	}
	tag := r.payload[r.pos]
	r.pos++
	if tag&v3TagReserved != 0 {
		return Access{}, fmt.Errorf("reserved tag bits %#x set", tag&v3TagReserved)
	}
	var a Access
	if tag&v3TagSameThread != 0 {
		if !r.hasPrev {
			return Access{}, fmt.Errorf("same-thread tag on the block's first record")
		}
		a.Thread = r.prevThread
	} else {
		v, err := r.uvarint()
		if err != nil {
			return Access{}, err
		}
		if v >= v3MaxThreads {
			return Access{}, fmt.Errorf("thread %d outside [0, %d)", v, v3MaxThreads)
		}
		a.Thread = int32(v)
	}
	c := r.ctx(a.Thread)
	predTime := c.lastTime + c.timeStride
	predAddr := c.lastAddr + c.addrStride
	if tag&v3TagTimePred != 0 {
		a.Time = predTime
	} else {
		d, err := r.svarint()
		if err != nil {
			return Access{}, err
		}
		a.Time = predTime + uint64(d)
	}
	if tag&v3TagAddrPred != 0 {
		a.Addr = predAddr
	} else {
		d, err := r.svarint()
		if err != nil {
			return Access{}, err
		}
		a.Addr = predAddr + uint64(d)
	}
	if tag&v3TagSameSize != 0 {
		a.Size = c.size
	} else {
		v, err := r.uvarint()
		if err != nil {
			return Access{}, err
		}
		if v > math.MaxUint32 {
			return Access{}, fmt.Errorf("size %d overflows 32 bits", v)
		}
		a.Size = uint32(v)
	}
	if tag&v3TagSameRegion != 0 {
		a.Region = c.region
	} else {
		v, err := r.svarint()
		if err != nil {
			return Access{}, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return Access{}, fmt.Errorf("region %d overflows 32 bits", v)
		}
		a.Region = int32(v)
	}
	if tag&v3TagWrite != 0 {
		a.Kind = Write
	}
	c.update(a)
	r.prevThread = a.Thread
	r.hasPrev = true
	r.left--
	if r.left == 0 && r.pos != len(r.payload) {
		return Access{}, fmt.Errorf("%d trailing bytes after the block's last record", len(r.payload)-r.pos)
	}
	return a, nil
}

// decodeInto bulk-decodes up to len(out) records of the current block into
// out, returning how many succeeded and the first error. One call per
// block/batch intersection replaces one three-frame call chain per record —
// the difference between the batched replay path keeping up with the fixed
// 29-byte format and trailing it (the per-record decode work is a few ns, so
// dispatch overhead dominates without this).
func (r *v3BlockReader) decodeInto(out []Access) (int, error) {
	for i := range out {
		a, err := r.decode()
		if err != nil {
			return i, err
		}
		out[i] = a
	}
	return len(out), nil
}
