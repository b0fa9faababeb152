package commprof

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"commprof/internal/trace"
)

// probeShapedStream is an access stream shaped like the probe shim's: a few
// goroutines taking turns in chunks of uneven length, one global clock, and
// a region table with source positions. Goroutine 0 writes a shared array
// in its loop; the others read it and write their own slices in a closure's
// range loop, which goroutine 0 reads back.
func probeShapedStream(goroutines, n int) ([]Access, []Region) {
	regions := []Region{
		{Name: "main", Parent: -1, File: "main.go", Line: 10},
		{Name: "main#for1", Parent: 0, Loop: true, File: "main.go", Line: 14},
		{Name: "main.func1", Parent: 0, File: "main.go", Line: 21},
		{Name: "main.func1#range1", Parent: 2, Loop: true, File: "main.go", Line: 23},
	}
	accs := make([]Access, 0, n)
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	step := make([]uint64, goroutines)
	for len(accs) < n {
		g := int32(next() % uint64(goroutines))
		for k := 1 + next()%48; k > 0 && len(accs) < n; k-- {
			i := step[g]
			step[g]++
			a := Access{Thread: g, Time: uint64(len(accs) + 1), Size: 8}
			switch {
			case g == 0 && i%3 != 2:
				a.Kind, a.Addr, a.Region = WriteAccess, 0x10000+8*(i%256), 1
			case g == 0:
				a.Kind, a.Addr, a.Region = ReadAccess, 0x20000+8*(i%512), 1
			case i%2 == 0:
				a.Kind, a.Addr, a.Region = ReadAccess, 0x10000+8*((i*7)%256), 3
			default:
				a.Kind, a.Addr, a.Region, a.Size = WriteAccess, 0x20000+8*(uint64(g-1)*128+i%128), 3, 4
			}
			accs = append(accs, a)
		}
	}
	return accs, regions
}

// TestLiveReplayMatchesTraceParallel pins the probe shim's live mode
// against the path it replaced. The shim used to convert its sorted records
// to []Access and call ProfileTraceParallel; it now encodes them as a v3
// trace in memory and calls Replay. On the same probe-shaped stream, with
// the analysis knobs live mode passes through, both give the same report up
// to the golden normaliser and the Workload label ("trace" → "replay").
func TestLiveReplayMatchesTraceParallel(t *testing.T) {
	const goroutines = 5
	accs, regions := probeShapedStream(goroutines, 12000)
	opts := Options{AnalysisShards: 2, PhaseWindow: 1500, RedundancyCacheBits: 8, GranularityBits: 3}

	want, err := ProfileTraceParallel(accs, regions, goroutines, opts)
	if err != nil {
		t.Fatal(err)
	}

	table, err := buildTable(regions)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.NewDynamicEncoder(f, table)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		k := trace.Read
		if a.Kind == WriteAccess {
			k = trace.Write
		}
		if err := enc.Write(trace.Access{Time: a.Time, Addr: a.Addr, Size: a.Size, Thread: a.Thread, Region: a.Region, Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	enc.SetThreads(goroutines)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(bytes.NewReader(b), 0, opts)
	if err != nil {
		t.Fatal(err)
	}

	if want.Workload != "trace" || got.Workload != "replay" {
		t.Fatalf("Workload labels %q and %q, want \"trace\" and \"replay\"", want.Workload, got.Workload)
	}
	if want.Global.Bytes == nil || len(want.Phases) < 2 {
		t.Fatalf("the stream is too tame to pin anything: %d phases", len(want.Phases))
	}
	want.Workload, got.Workload = "", ""
	if reportDigest(t, want) != reportDigest(t, got) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Fatalf("live replay differs from ProfileTraceParallel:\nold: %.2000s\nnew: %.2000s", wj, gj)
	}
}
