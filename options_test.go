package commprof

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"commprof/internal/sig"
)

// TestSetDefaultsSentinels pins the documented zero-value sentinel behaviour:
// Seed 0 and BloomFPRate 0 mean "unset" and are rewritten to the defaults, so
// neither can be selected explicitly (an FP rate of exactly 0 is rejected by
// the signature layer anyway, and seed 0 silently becomes 42).
func TestSetDefaultsSentinels(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Seed != 42 {
		t.Errorf("Seed sentinel: got %d, want 42", o.Seed)
	}
	if o.BloomFPRate != 0.001 {
		t.Errorf("BloomFPRate sentinel: got %g, want 0.001", o.BloomFPRate)
	}
	if o.Threads != 32 || o.InputSize != "simdev" || o.SignatureSlots != 1<<20 {
		t.Errorf("other defaults wrong: %+v", o)
	}
	if o.MaxHotspots != 10 {
		t.Errorf("MaxHotspots default: got %d, want 10", o.MaxHotspots)
	}

	// Explicit non-zero values survive untouched.
	set := Options{Seed: 7, BloomFPRate: 0.01, MaxHotspots: 3}
	set.setDefaults()
	if set.Seed != 7 || set.BloomFPRate != 0.01 || set.MaxHotspots != 3 {
		t.Errorf("explicit values rewritten: %+v", set)
	}

	// Negative MaxHotspots (lift the cap) must not be clobbered either.
	neg := Options{MaxHotspots: -1}
	neg.setDefaults()
	if neg.MaxHotspots != -1 {
		t.Errorf("negative MaxHotspots rewritten to %d", neg.MaxHotspots)
	}
}

func TestMaxHotspotsCap(t *testing.T) {
	base := Options{Workload: "lu_ncb", Threads: 8}
	full, err := Profile(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Hotspots) == 0 {
		t.Fatal("lu_ncb produced no hotspots; test workload unsuitable")
	}

	capped := base
	capped.MaxHotspots = 2
	rep, err := Profile(capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hotspots) > 2 {
		t.Errorf("MaxHotspots=2 but report has %d hotspots", len(rep.Hotspots))
	}
	// The cap keeps the ranking prefix: same top entries as the full list.
	for i, h := range rep.Hotspots {
		if h.Region != full.Hotspots[i].Region {
			t.Errorf("hotspot %d: %s, uncapped run has %s", i, h.Region, full.Hotspots[i].Region)
		}
	}

	uncapped := base
	uncapped.MaxHotspots = -1
	all, err := Profile(uncapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Hotspots) < len(full.Hotspots) {
		t.Errorf("MaxHotspots=-1 returned %d hotspots, capped default returned %d",
			len(all.Hotspots), len(full.Hotspots))
	}
}

// TestOptionsBoundsTypedError pins that sizes beyond a documented bound fail
// with an *OptionsError before anything is allocated for them: a signature
// the 32-bit filter index cannot address (2^33 slots would be 64 GiB of
// arrays) and a redundancy cache past MaxBits (30 bits would be 12 GiB).
// The memory limit turns an attempted allocation into a GC storm and the
// allocation counter into a failure, rather than an OOM kill.
func TestOptionsBoundsTypedError(t *testing.T) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(512 << 20))
	regions := []Region{{Name: "main", Parent: -1}}
	body := func(th *Thread) { th.Write(0x10, 8) }
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"SignatureSlots", Options{SignatureSlots: 1 << 33}},
		{"RedundancyCacheBits", Options{RedundancyCacheBits: 30}},
		{"RedundancyCacheBits", Options{RedundancyCacheBits: 21, AnalysisShards: 2}},
	} {
		for _, ep := range []struct {
			name string
			run  func(Options) error
		}{
			{"Profile", func(o Options) error { o.Workload = "fft"; _, err := Profile(o); return err }},
			{"Run", func(o Options) error { _, err := Run(2, regions, body, o); return err }},
			{"ProfileTrace", func(o Options) error { _, err := ProfileTrace(nil, regions, 2, o); return err }},
			{"ProfileMiniPar", func(o Options) error {
				_, _, err := ProfileMiniPar("func main() { }", 2, nil, o)
				return err
			}},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ep.run(tc.opts)
			runtime.ReadMemStats(&after)
			var oe *OptionsError
			if !errors.As(err, &oe) || oe.Field != tc.field {
				t.Errorf("%s with %s: err = %v, want *OptionsError for %s", ep.name, tc.field, err, tc.field)
				continue
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Errorf("%s with %s: allocated %d bytes before rejecting", ep.name, tc.field, grew)
			}
		}
	}
	var se *sig.SlotsError
	if _, err := Profile(Options{Workload: "fft", SignatureSlots: 1 << 33}); !errors.As(err, &se) {
		t.Errorf("SignatureSlots error %v does not unwrap to *sig.SlotsError", err)
	}
	if _, err := Profile(Options{Workload: "fft", Threads: 4, RedundancyCacheBits: 20}); err != nil {
		t.Errorf("RedundancyCacheBits at the bound rejected: %v", err)
	}
}
