package commprof

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"commprof/internal/trace"
)

// TestCraftedAccessesFailTyped feeds every batch source an access whose
// thread or region lies outside the declared bounds, in each trace codec
// version and on both analysers. The session's one validator must turn each
// into an "access i" error: a negative region used to index the serial
// detector's matrices (a panic) and, with AnalysisShards, killed the process
// from a shard worker, while a region past the table was silently dropped.
func TestCraftedAccessesFailTyped(t *testing.T) {
	const threads = 2
	table := trace.NewTable()
	table.AddFunc("main", trace.NoRegion)
	table.AddLoop("loop", 0)
	crafted := []struct {
		name string
		a    trace.Access
	}{
		{"negative region", trace.Access{Addr: 0x40, Size: 8, Thread: 1, Region: -5}},
		{"region past table", trace.Access{Addr: 0x40, Size: 8, Thread: 1, Region: 7}},
		{"thread past count", trace.Access{Addr: 0x40, Size: 8, Thread: 5, Region: 1}},
	}
	for _, c := range crafted {
		st := &trace.Stream{Table: table, Accesses: []trace.Access{
			{Time: 1, Addr: 0x40, Size: 8, Thread: 0, Region: 1, Kind: trace.Write},
			{Time: 2, Addr: 0x40, Size: 8, Thread: 1, Region: 1, Kind: trace.Read},
			c.a,
		}}
		st.Accesses[2].Time = 3
		accs, regs := streamToPublic(st)
		for _, mode := range []struct {
			name string
			opts Options
		}{{"serial", Options{}}, {"sharded", Options{AnalysisShards: 2}}} {
			check := func(source string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "access 2 ") {
					t.Errorf("%s %s %s: err = %v, want an access 2 error", c.name, mode.name, source, err)
				}
			}
			for _, v := range []int{1, 2, 3} {
				var buf bytes.Buffer
				if err := st.EncodeVersion(&buf, v, threads); err != nil {
					t.Fatalf("%s v%d: %v", c.name, v, err)
				}
				_, err := Replay(&buf, threads, mode.opts)
				check(fmt.Sprintf("Replay v%d", v), err)
			}
			_, err := ProfileTrace(accs, regs, threads, mode.opts)
			check("ProfileTrace", err)
		}
	}
}

// entryPath is one public entry point driven over the shared fft-sized
// inputs of the entry-path tests.
type entryPath struct {
	name  string
	batch bool // a batch source ([]Access or a trace decoder)
	run   func(t *testing.T, opts Options) (*Report, error)
}

func entryPaths(t *testing.T) []entryPath {
	t.Helper()
	var v3 bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: goldenThreads}, &v3); err != nil {
		t.Fatal(err)
	}
	st, err := trace.Decode(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	accs, regs := streamToPublic(st)
	mp, err := os.ReadFile("testdata/stencil.mp")
	if err != nil {
		t.Fatal(err)
	}
	return []entryPath{
		{"Profile", false, func(t *testing.T, opts Options) (*Report, error) {
			opts.Workload = "fft"
			return Profile(opts)
		}},
		{"Run", false, func(t *testing.T, opts Options) (*Report, error) {
			return Run(goldenThreads, goldenRunRegions, goldenRunBody, opts)
		}},
		{"ProfileMiniPar", false, func(t *testing.T, opts Options) (*Report, error) {
			rep, _, err := ProfileMiniPar(string(mp), goldenThreads, nil, opts)
			return rep, err
		}},
		{"Record", false, func(t *testing.T, opts Options) (*Report, error) {
			opts.Workload = "fft"
			var buf bytes.Buffer
			rep, err := Record(opts, &buf)
			if err != nil {
				return nil, err
			}
			// The trace carries every access, sampled or not.
			rec, err := trace.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(rec.Accesses)) != rep.Accesses {
				t.Errorf("Record wrote %d accesses, the report counts %d", len(rec.Accesses), rep.Accesses)
			}
			return rep, nil
		}},
		{"ProfileTrace", true, func(t *testing.T, opts Options) (*Report, error) {
			return ProfileTrace(accs, regs, goldenThreads, opts)
		}},
		{"ProfileTraceParallel", true, func(t *testing.T, opts Options) (*Report, error) {
			return ProfileTraceParallel(accs, regs, goldenThreads, opts)
		}},
		{"Replay", true, func(t *testing.T, opts Options) (*Report, error) {
			return Replay(bytes.NewReader(v3.Bytes()), goldenThreads, opts)
		}},
	}
}

// TestEntryPathConfigTable runs every entry path × analyser × configuration
// and asserts that each path honours each option the same way: the report
// sections an option turns on are populated, the sharded analyser adds its
// Pipeline section, every batch source splits Report.Overhead into
// signature, redundancy and shadow time, and the /metrics gauge names match
// across paths for the same analyser and configuration (apart from the
// engine's exec_* gauges, which only an engine-driven run has). Record
// refuses Parallel, and ProfileTraceParallel has no serial analyser.
func TestEntryPathConfigTable(t *testing.T) {
	paths := entryPaths(t)
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"sharded", Options{AnalysisShards: 2}},
		{"parallel", Options{Parallel: true}},
	}
	configs := []struct {
		name string
		opts Options
	}{
		{"phases", Options{PhaseWindow: 2000}},
		{"redundancy", Options{RedundancyCacheBits: 10}},
		{"accuracy", Options{AccuracyTargetFPR: 0.05}},
		{"sampling", Options{SampleBurst: 1, SamplePeriod: 4}},
		{"timeline", Options{}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, cfg := range configs {
				gauges := map[string][]string{} // path → gauge names
				for _, p := range paths {
					if mode.name == "serial" && p.name == "ProfileTraceParallel" {
						continue
					}
					t.Run(p.name+"/"+cfg.name, func(t *testing.T) {
						opts := cfg.opts
						opts.Threads = goldenThreads
						opts.AnalysisShards, opts.Parallel = mode.opts.AnalysisShards, mode.opts.Parallel
						if mode.name == "parallel" && p.name == "ProfileTraceParallel" {
							opts.AnalysisShards = 1
						}
						tel := NewTelemetry()
						if cfg.name == "timeline" {
							tel.EnableTimeline()
						}
						opts.Telemetry = tel
						rep, err := p.run(t, opts)
						if mode.name == "parallel" && p.name == "Record" {
							var oe *OptionsError
							if !errors.As(err, &oe) || oe.Field != "Parallel" {
								t.Fatalf("Record with Parallel: err = %v, want *OptionsError for Parallel", err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						checkEntryPathReport(t, rep, cfg.name, mode.name != "serial", p.batch)
						if cfg.name == "timeline" {
							var buf bytes.Buffer
							if err := tel.WriteTimeline(&buf); err != nil {
								t.Fatal(err)
							}
							var evs []json.RawMessage
							if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || len(evs) == 0 {
								t.Errorf("timeline JSON empty or invalid (%d events, %v)", len(evs), err)
							}
						}
						var names []string
						for name := range rep.Telemetry.Gauges {
							if !strings.HasPrefix(name, "exec_") {
								names = append(names, name)
							}
						}
						sort.Strings(names)
						gauges[p.name] = names
					})
				}
				var ref string
				for _, p := range paths {
					names, ok := gauges[p.name]
					if !ok {
						continue
					}
					if ref == "" {
						ref = p.name
						continue
					}
					if !reflect.DeepEqual(names, gauges[ref]) {
						t.Errorf("%s: %s gauges differ from %s:\n%s: %v\n%s: %v",
							cfg.name, p.name, ref, p.name, names, ref, gauges[ref])
					}
				}
			}
		})
	}
}

// checkEntryPathReport asserts the report sections one table row must carry.
func checkEntryPathReport(t *testing.T, rep *Report, cfg string, sharded, batch bool) {
	t.Helper()
	if rep.Telemetry == nil {
		t.Error("Telemetry missing")
	}
	if (rep.Pipeline != nil) != sharded {
		t.Errorf("Pipeline present = %v, want %v", rep.Pipeline != nil, sharded)
	}
	switch cfg {
	case "phases":
		if len(rep.Phases) == 0 || rep.PhaseTimeline == nil || len(rep.PhaseTimeline.Windows) == 0 {
			t.Errorf("phases missing: %d phases, timeline %v", len(rep.Phases), rep.PhaseTimeline)
		}
	case "redundancy":
		if rep.Redundancy == nil || rep.Redundancy.Hits+rep.Redundancy.Misses == 0 {
			t.Errorf("Redundancy missing or idle: %+v", rep.Redundancy)
		}
	case "accuracy":
		if rep.Accuracy == nil || rep.Accuracy.SampledAccesses == 0 {
			t.Errorf("Accuracy missing or idle: %+v", rep.Accuracy)
		}
	case "sampling":
		if rep.SampleFraction >= 1 {
			t.Errorf("SampleFraction = %v, want < 1", rep.SampleFraction)
		}
	}
	if !batch {
		return
	}
	ov := rep.Overhead
	if ov == nil || ov.SignatureNanos == 0 {
		t.Fatalf("batch source without a signature overhead split: %+v", ov)
	}
	if cfg == "redundancy" && ov.RedundancyNanos == 0 {
		t.Errorf("RedundancyNanos = 0 with the redundancy cache on: %+v", ov)
	}
	if cfg == "accuracy" && ov.ShadowNanos == 0 {
		t.Errorf("ShadowNanos = 0 with the accuracy monitor on: %+v", ov)
	}
}
