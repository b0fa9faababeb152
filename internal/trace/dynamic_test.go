package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// memSeeker is an in-memory io.WriteSeeker for exercising the header-patching
// close path without touching the filesystem.
type memSeeker struct {
	buf []byte
	off int64
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.off + int64(len(p)); need > int64(len(m.buf)) {
		grown := make([]byte, need)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[m.off:], p)
	m.off += int64(len(p))
	return len(p), nil
}

func (m *memSeeker) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.off = offset
	case io.SeekCurrent:
		m.off += offset
	case io.SeekEnd:
		m.off = int64(len(m.buf)) + offset
	default:
		return 0, fmt.Errorf("bad whence %d", whence)
	}
	if m.off < 0 {
		return 0, fmt.Errorf("negative offset")
	}
	return m.off, nil
}

// sourceTable builds a region table with real source positions, as the
// instrumenter produces.
func sourceTable() *Table {
	tb := NewTable()
	mainID := tb.AddFunc("main", NoRegion)
	tb.Regions[mainID].File = "main.go"
	tb.Regions[mainID].Line = 10
	loopID := tb.AddLoop("main#for1", mainID)
	tb.Regions[loopID].File = "main.go"
	tb.Regions[loopID].Line = 14
	return tb
}

func TestDynamicRoundTrip(t *testing.T) {
	tb := sourceTable()
	accs := []Access{
		{Time: 1, Addr: 0xc000010000, Size: 8, Thread: 0, Region: 1, Kind: Write},
		{Time: 2, Addr: 0xc000010000, Size: 8, Thread: 2, Region: 1, Kind: Read},
		{Time: 3, Addr: 0xc000010040, Size: 4, Thread: 5, Region: 0, Kind: Read},
	}
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	enc.SetThreads(7) // registered goroutines beyond the max seen in records
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoder(bytes.NewReader(ms.buf))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threads() != 7 {
		t.Fatalf("Threads() = %d, want 7", dec.Threads())
	}
	if dec.Len() != len(accs) {
		t.Fatalf("Len() = %d, want %d", dec.Len(), len(accs))
	}
	for i, want := range tb.Regions {
		if got := dec.Table().Regions[i]; got != want {
			t.Fatalf("region %d = %+v, want %+v", i, got, want)
		}
	}
	for i, want := range accs {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

func TestDynamicThreadsDerivedFromRecords(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Thread: 3, Region: NoRegion}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(ms.buf))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threads() != 4 {
		t.Fatalf("Threads() = %d, want max-thread+1 = 4", dec.Threads())
	}
}

// TestDynamicUnfinalizedRejected is the truncation-safety contract: a
// recording whose process died before Close (header still holds the sentinel
// counts) must be rejected up front, never silently decoded as a complete —
// or worse, empty — run.
func TestDynamicUnfinalizedRejected(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := enc.Write(Access{Time: uint64(i), Thread: int32(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash by flushing the buffered bytes only.
	if err := enc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = NewDecoder(bytes.NewReader(ms.buf))
	if err == nil {
		t.Fatal("decoder accepted an unfinalized stream")
	}
	if !strings.Contains(err.Error(), "finalized") {
		t.Fatalf("error %q does not name the finalization failure", err)
	}
}

// TestDynamicFlushSalvage pins Flush: it writes every completed v3 block
// through without finalizing the stream, so a writer that dies after it
// leaves whole blocks a tolerant decoder salvages cleanly, while the
// records of the still-open block stay buffered. Flush after Close fails.
func TestDynamicFlushSalvage(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*v3BlockRecords + 100
	for i := 0; i < n; i++ {
		if err := enc.Write(Access{Time: uint64(i + 1), Addr: uint64(8 * i), Size: 8, Thread: int32(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(bytes.NewReader(ms.buf)); err == nil {
		t.Fatal("Flush finalized the stream")
	}
	dec, err := NewDecoderTolerant(bytes.NewReader(ms.buf))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := dec.ForEach(func(a Access) error {
		got++
		if a.Time != uint64(got) {
			return fmt.Errorf("salvaged record %d has time %d", got, a.Time)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2*v3BlockRecords || dec.SalvageErr() != nil {
		t.Fatalf("salvaged %d records (err %v), want the %d of the completed blocks", got, dec.SalvageErr(), 2*v3BlockRecords)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err == nil {
		t.Fatal("Flush after Close succeeded")
	}
}

// TestDynamicTruncatedRecord mirrors the v1 sticky-error tests: a finalized
// v2 stream cut mid-record must fail with "record i of n" context wrapping
// io.ErrUnexpectedEOF, and the error must stick. Pinned to v2: the cut
// below removes half a fixed-size record.
func TestDynamicTruncatedRecord(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoderVersion(&ms, sourceTable(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := enc.Write(Access{Time: uint64(i), Thread: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	cut := ms.buf[:len(ms.buf)-accessRecLen/2] // half of the final record gone
	dec, err := NewDecoder(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	_, err = dec.Next()
	if err == nil {
		t.Fatal("decoder accepted a truncated record")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
	}
	if !strings.Contains(err.Error(), "record 3 of 3") {
		t.Fatalf("error %q does not carry record position context", err)
	}
	if _, err2 := dec.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("error did not stick: %v then %v", err, err2)
	}
}

func TestDynamicWriteAfterClose(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{}); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	if err := enc.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
}

func TestDynamicNegativeThreadRejected(t *testing.T) {
	var ms memSeeker
	enc, err := NewDynamicEncoder(&ms, NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Thread: -1}); err == nil {
		t.Fatal("negative thread accepted")
	}
}

func TestRegionLabel(t *testing.T) {
	r := Region{Name: "worker"}
	if got := r.Label(); got != "worker" {
		t.Fatalf("Label() = %q, want bare name for synthetic regions", got)
	}
	r.File, r.Line = "pool.go", 42
	if got := r.Label(); got != "worker pool.go:42" {
		t.Fatalf("Label() = %q, want \"worker pool.go:42\"", got)
	}
}

// encodeV2 renders a finalized v2 byte stream for fuzz seeding.
func encodeV2(t interface{ Fatal(...any) }, tb *Table, accs []Access) []byte {
	var ms memSeeker
	enc, err := NewDynamicEncoderVersion(&ms, tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return ms.buf
}
