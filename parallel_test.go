package commprof

import (
	"os"
	"reflect"
	"testing"
)

// TestParallelDeterministicTotalInvariance pins that the parallel goroutine
// engine and the deterministic round-robin scheduler agree on the global
// matrix for a race-free workload. The workload is a single-writer scatter
// chosen to be order-invariant by construction: thread 0 writes a distinct
// block of K addresses per consumer, a barrier separates production from
// consumption, and each other thread then reads only its own block. With one
// writer the write signature records the same owner under any interleaving,
// and because no two threads read the same address, every first-read check
// queries a reader set containing at most that reader — so the bloom
// filter's order-sensitive false positives (which CAN differ between
// schedules when readers share a slot) never arise.
func TestParallelDeterministicTotalInvariance(t *testing.T) {
	const (
		threads = 8
		k       = 64 // addresses per consumer thread
		size    = 8
	)
	regions := []Region{{Name: "main", Parent: -1}, {Name: "scatter", Parent: 0, Loop: true}}
	block := func(consumer uint64) uint64 { return 0x10000 + (consumer-1)*k*size }
	body := func(th *Thread) {
		th.InRegion(1, func() {
			if th.ID() == 0 {
				for c := uint64(1); c < threads; c++ {
					for i := uint64(0); i < k; i++ {
						th.Write(block(c)+i*size, size)
					}
				}
			}
			th.Barrier()
			if th.ID() != 0 {
				for i := uint64(0); i < k; i++ {
					th.Read(block(uint64(th.ID()))+i*size, size)
				}
			}
		})
	}

	det, err := Run(threads, regions, body, Options{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	// Every consumer reads k*size bytes last written by thread 0; the exact
	// total also proves no bloom false positive ate an event.
	if want := uint64(k * size * (threads - 1)); det.Global.Total() != want {
		t.Fatalf("deterministic total = %d, want %d", det.Global.Total(), want)
	}

	for trial := 0; trial < 3; trial++ {
		par, err := Run(threads, regions, body, Options{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if par.Global.Total() != det.Global.Total() {
			t.Fatalf("trial %d: parallel total %d != deterministic total %d",
				trial, par.Global.Total(), det.Global.Total())
		}
		if !reflect.DeepEqual(par.Global.Bytes, det.Global.Bytes) {
			t.Fatalf("trial %d: parallel matrix diverged:\npar: %v\ndet: %v",
				trial, par.Global.Bytes, det.Global.Bytes)
		}
		if par.Dependencies != det.Dependencies {
			t.Fatalf("trial %d: dependency counts diverged: %d vs %d",
				trial, par.Dependencies, det.Dependencies)
		}
	}
}

// TestParallelEntryPathsPopulateSingleOwnerLayers pins that a Parallel run
// of every simulated-thread entry path reaches the single-owner analyser
// layers: the redundancy cache and the accuracy monitor used to be switched
// off silently under Parallel, because the threads called one shared
// detector; now the threads feed per-thread producers and one shard worker
// owns the detector, so both report. Run it under -race: the producers are
// the only state the target's goroutines touch.
func TestParallelEntryPathsPopulateSingleOwnerLayers(t *testing.T) {
	const threads = 4
	opts := Options{
		Parallel:            true,
		RedundancyCacheBits: 10,
		AccuracyTargetFPR:   DefaultAccuracyTargetFPR,
	}
	regions := []Region{{Name: "main", Parent: -1}, {Name: "ring", Parent: 0, Loop: true}}
	body := func(th *Thread) {
		th.InRegion(1, func() {
			for round := uint64(0); round < 8; round++ {
				for i := uint64(0); i < 64; i++ {
					th.Write(0x1000+(uint64(th.ID())*64+i)*8, 8)
				}
				th.Barrier()
				next := (uint64(th.ID()) + 1) % threads
				for i := uint64(0); i < 64; i++ {
					th.Read(0x1000+(next*64+i)*8, 8)
					th.Read(0x1000+(next*64+i)*8, 8) // a redundant re-read
				}
				th.Barrier()
			}
		})
	}
	src, err := os.ReadFile("testdata/stencil.mp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"Profile", func() (*Report, error) {
			o := opts
			o.Workload, o.Threads = "fft", threads
			return Profile(o)
		}},
		{"Run", func() (*Report, error) { return Run(threads, regions, body, opts) }},
		{"ProfileMiniPar", func() (*Report, error) {
			rep, _, err := ProfileMiniPar(string(src), threads, nil, opts)
			return rep, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Dependencies == 0 {
				t.Fatal("parallel run detected nothing")
			}
			if rep.Redundancy == nil || rep.Redundancy.Hits == 0 {
				t.Errorf("Report.Redundancy = %+v, want a populated cache section", rep.Redundancy)
			}
			if rep.Accuracy == nil || rep.Accuracy.SampledAccesses == 0 {
				t.Errorf("Report.Accuracy = %+v, want a populated monitor section", rep.Accuracy)
			}
			if rep.Pipeline == nil || rep.Pipeline.Shards != 1 {
				t.Errorf("Report.Pipeline = %+v, want the one-shard analyser", rep.Pipeline)
			}
		})
	}
}
