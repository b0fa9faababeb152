package commprof

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"commprof/internal/trace"
)

// goldenDigestsPath holds one SHA-256 per entry path × analyser ×
// configuration: the digest of the report with its non-analytical fields
// (Telemetry, Overhead, the scheduling-dependent Pipeline peaks) cleared.
const goldenDigestsPath = "testdata/golden_digests.json"

// goldenThreads and goldenSlots keep every golden run small; the small
// signature makes the asymmetric backend collide, so serial and sharded
// digests differ and each analyser's own approximation is pinned.
const (
	goldenThreads = 4
	goldenSlots   = 1 << 12
)

// goldenModes are the analyser × configuration pairs every entry path runs
// under. "rich" turns on the three optional analysis layers at once.
var goldenModes = []struct {
	name string
	opts Options
}{
	{"serial/plain", Options{}},
	{"serial/rich", Options{PhaseWindow: 2000, RedundancyCacheBits: 10, AccuracyTargetFPR: 0.05, AccuracySampleBits: 1}},
	{"sharded/plain", Options{AnalysisShards: 2}},
	{"sharded/rich", Options{AnalysisShards: 2, PhaseWindow: 2000, RedundancyCacheBits: 10, AccuracyTargetFPR: 0.05, AccuracySampleBits: 1}},
}

// goldenOptions is a mode's Options with the shared golden sizing.
func goldenOptions(mode Options) Options {
	mode.Threads = goldenThreads
	mode.SignatureSlots = goldenSlots
	return mode
}

// reportDigest hashes the deterministic part of a report.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.Telemetry, r.Overhead = nil, nil
	if r.Pipeline != nil {
		p := *r.Pipeline
		p.PeakDepths, p.PeakResidentAccesses = nil, 0
		r.Pipeline = &p
	}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenRunBody is Run's deterministic workload: a ring exchange inside a
// loop region, separated by barriers.
func goldenRunBody(th *Thread) {
	const words = 64
	n := uint64(goldenThreads)
	id := uint64(th.ID())
	th.InRegion(1, func() {
		for round := uint64(0); round < 4; round++ {
			for i := uint64(0); i < words; i++ {
				th.Write(0x1000+(id*words+i)*8, 8)
			}
			th.Barrier()
			next := (id + 1) % n
			for i := uint64(0); i < words; i++ {
				th.Read(0x1000+(next*words+i)*8, 8)
			}
			th.Work(3)
			th.Barrier()
		}
	})
}

var goldenRunRegions = []Region{{Name: "main", Parent: -1}, {Name: "ring", Parent: 0, Loop: true}}

// streamToPublic converts a decoded trace into ProfileTrace's input form.
func streamToPublic(st *trace.Stream) ([]Access, []Region) {
	accs := make([]Access, len(st.Accesses))
	for i, a := range st.Accesses {
		k := ReadAccess
		if a.Kind == trace.Write {
			k = WriteAccess
		}
		accs[i] = Access{Kind: k, Addr: a.Addr, Size: a.Size, Thread: a.Thread, Region: a.Region, Time: a.Time}
	}
	regs := make([]Region, len(st.Table.Regions))
	for i, r := range st.Table.Regions {
		regs[i] = Region{Name: r.Name, Parent: r.Parent, Loop: r.Kind == trace.LoopRegion, File: r.File, Line: r.Line}
	}
	return accs, regs
}

// computeGoldenDigests runs every entry path under every golden mode it
// honours and returns the digests by case name. Record honours neither
// AnalysisShards nor PhaseWindow, so it runs the serial modes only, with
// the rich mode's phase window left out. ProfileTrace runs serial only and
// ProfileTraceParallel sharded only: with AnalysisShards 0 the latter takes
// its shard count from the host.
func computeGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(name, d string) {
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate golden case %s", name)
		}
		out[name] = d
	}
	traces := map[int][]byte{}
	for _, v := range []int{1, 2, 3} {
		for _, mode := range goldenModes[:2] {
			opts := goldenOptions(mode.opts)
			opts.Workload, opts.TraceFormat, opts.PhaseWindow = "fft", v, 0
			var buf bytes.Buffer
			rep, err := Record(opts, &buf)
			if err != nil {
				t.Fatalf("Record v%d %s: %v", v, mode.name, err)
			}
			put("Record/v"+strconv.Itoa(v)+"/"+mode.name, reportDigest(t, rep))
			put("Record/v"+strconv.Itoa(v)+"/"+mode.name+"/trace", bytesDigest(buf.Bytes()))
			if mode.name == "serial/plain" {
				traces[v] = buf.Bytes()
			}
		}
	}
	st, err := trace.Decode(bytes.NewReader(traces[1]))
	if err != nil {
		t.Fatal(err)
	}
	accs, regs := streamToPublic(st)
	mp, err := os.ReadFile("testdata/stencil.mp")
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range goldenModes {
		opts := goldenOptions(mode.opts)
		run := func(path string, rep *Report, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", path, mode.name, err)
			}
			put(path+"/"+mode.name, reportDigest(t, rep))
		}
		p := opts
		p.Workload = "fft"
		rep, err := Profile(p)
		run("Profile", rep, err)
		rep, err = Run(goldenThreads, goldenRunRegions, goldenRunBody, opts)
		run("Run", rep, err)
		rep, _, err = ProfileMiniPar(string(mp), goldenThreads, nil, opts)
		run("ProfileMiniPar", rep, err)
		if opts.AnalysisShards == 0 {
			rep, err = ProfileTrace(accs, regs, goldenThreads, opts)
			run("ProfileTrace", rep, err)
		} else {
			rep, err = ProfileTraceParallel(accs, regs, goldenThreads, opts)
			run("ProfileTraceParallel", rep, err)
		}
		for _, v := range []int{1, 2, 3} {
			rep, err = Replay(bytes.NewReader(traces[v]), goldenThreads, opts)
			run("Replay/v"+strconv.Itoa(v), rep, err)
		}
	}
	return out
}

// TestGoldenReportDigests pins every entry path's report byte for byte
// across refactors: Profile, Run, ProfileMiniPar, ProfileTrace,
// ProfileTraceParallel, Record (report and trace bytes) and Replay of v1, v2
// and v3 traces, each on the serial and the 2-shard analyser, plain and with
// phases, redundancy filtering and the accuracy monitor on. Regenerate with
// go test -run TestGoldenReportDigests -update, and only when a change is
// meant to alter analysis results.
func TestGoldenReportDigests(t *testing.T) {
	got := computeGoldenDigests(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenDigestsPath), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(goldenDigestsPath))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: case no longer runs", name)
		} else if g != want[name] {
			t.Errorf("%s: digest %s, golden %s", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: case has no golden digest", name)
		}
	}
}
