package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"commprof"
)

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"lu_ncb", "radix", "water_nsq"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestProfileRun(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-heatmap", "-csv", "-classify")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"workload fft", "hotspots", "consumers", "pattern class:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestMissingApp(t *testing.T) {
	code, _, errOut := runCLI(t)
	if code != 2 || !strings.Contains(errOut, "-app is required") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestUnknownApp(t *testing.T) {
	code, _, errOut := runCLI(t, "-app", "doom")
	if code != 1 || !strings.Contains(errOut, "unknown benchmark") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestBadFlag(t *testing.T) {
	code, _, _ := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d", code)
	}
}

func TestSamplingFlag(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "ocean_cp", "-threads", "8", "-sample", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "read sampling active: 25.0%") {
		t.Errorf("sampling note missing:\n%s", out)
	}
}

// TestRecordRejectsParallel pins that -record with -parallel fails with the
// facade's Options error instead of silently recording a deterministic run,
// and leaves no trace file behind.
func TestRecordRejectsParallel(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "fft.trace")
	code, _, errOut := runCLI(t, "-app", "fft", "-threads", "4", "-parallel", "-record", tracePath)
	if code != 1 || !strings.Contains(errOut, "Options.Parallel") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with the Options.Parallel error", code, errOut)
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("failed recording left %s behind (stat err %v)", tracePath, err)
	}
}

func TestRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fft.trace")
	code, out1, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-record", tracePath)
	if code != 0 {
		t.Fatalf("record exit %d: %s", code, errOut)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v %v", fi, err)
	}
	code, out2, errOut := runCLI(t, "-replay", tracePath, "-threads", "8")
	if code != 0 {
		t.Fatalf("replay exit %d: %s", code, errOut)
	}
	// Same dependency count line in both outputs.
	depLine := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.Contains(l, "RAW deps") {
				return l[strings.Index(l, "threads,")+8:]
			}
		}
		return ""
	}
	if depLine(out1) == "" || depLine(out1) != depLine(out2) {
		t.Fatalf("replay diverged:\n%q\n%q", depLine(out1), depLine(out2))
	}
}

func TestReplayMissingFile(t *testing.T) {
	code, _, errOut := runCLI(t, "-replay", "/nonexistent/file.trace")
	if code != 1 || !strings.Contains(errOut, "commprof:") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep map[string]any
	if err := jsonUnmarshal(out, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep["Workload"] != "fft" {
		t.Fatalf("Workload = %v", rep["Workload"])
	}
	if _, ok := rep["Global"]; !ok {
		t.Fatal("Global matrix missing from JSON")
	}
}

func TestAppAllSummary(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "all", "-threads", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 15 { // header + 14 apps
		t.Fatalf("summary has %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"lu_ncb", "radix", "hotspot class", "structured-grid"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestTelemetryFlag(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-telemetry")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"-- telemetry (Prometheus text format) --",
		"# TYPE detect_events_total counter",
		"exec_logical_clock",
		"sig_slot_occupancy",
		"detect_event_bytes_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry dump missing %q:\n%s", want, out)
		}
	}
}

func TestTelemetryAddrFlag(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-telemetry", "-telemetry-addr", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "serving telemetry on http://127.0.0.1:") {
		t.Errorf("serving notice missing from stderr: %q", errOut)
	}
	if !strings.Contains(out, "detect_events_total") {
		t.Errorf("telemetry dump missing:\n%s", out)
	}
}

func TestTelemetryJSONOutput(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "fft", "-threads", "8", "-telemetry", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep map[string]any
	if err := jsonUnmarshal(out, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	tel, ok := rep["Telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("Telemetry missing from JSON report: %v", rep["Telemetry"])
	}
	if _, ok := tel["Counters"].(map[string]any); !ok {
		t.Fatalf("Telemetry.Counters missing: %v", tel)
	}
	if _, ok := tel["Spans"]; !ok {
		t.Fatal("Telemetry.Spans missing")
	}
}

func TestGranularityFlag(t *testing.T) {
	code, _, errOut := runCLI(t, "-app", "ocean_cp", "-threads", "8", "-granularity", "6")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
}

// parseProm checks a Prometheus text dump line by line and returns the
// metric names it declares.
func parseProm(t *testing.T, data string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i+1, line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		name := fields[0]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if _, err := strconv.ParseFloat(fields[len(fields)-1], 64); err != nil {
			t.Fatalf("line %d: value not a float in %q: %v", i+1, line, err)
		}
		names[name] = true
	}
	return names
}

func TestTelemetryDumpFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.prom")
	code, _, errOut := runCLI(t, "-app", "fft", "-threads", "8",
		"-accuracy-bits", "0", "-telemetry-dump", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := parseProm(t, string(data))
	for _, want := range []string{
		"accuracy_sampled_total", "accuracy_confirmed_total",
		"accuracy_false_positives_total", "accuracy_missed_events_total",
		"accuracy_estimated_fpr", "sig_fill_ratio",
		"detect_events_total",
	} {
		if !names[want] {
			t.Errorf("dump missing metric %s", want)
		}
	}
}

func TestTelemetryDumpBadPath(t *testing.T) {
	code, _, errOut := runCLI(t, "-app", "fft", "-threads", "8",
		"-telemetry-dump", filepath.Join(t.TempDir(), "no", "such", "dir", "f.prom"))
	if code != 1 || !strings.Contains(errOut, "commprof:") {
		t.Fatalf("exit %d, err %q", code, errOut)
	}
}

// TestAccuracyFlags covers the enable convention: -accuracy-target alone,
// -accuracy-bits alone (implies the default target), and neither (off).
func TestAccuracyFlags(t *testing.T) {
	code, out, errOut := runCLI(t, "-app", "radix", "-threads", "8", "-sig", "512",
		"-accuracy-target", "0.02", "-accuracy-bits", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "accuracy monitor: 1/2 of granules shadowed") {
		t.Errorf("accuracy summary missing:\n%s", out)
	}
	code, out, errOut = runCLI(t, "-app", "fft", "-threads", "8", "-accuracy-bits", "0", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep struct {
		Accuracy *struct{ TargetFPR float64 }
	}
	if err := jsonUnmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy == nil || rep.Accuracy.TargetFPR != commprof.DefaultAccuracyTargetFPR {
		t.Errorf("-accuracy-bits alone: Accuracy = %+v, want default target", rep.Accuracy)
	}
	code, out, errOut = runCLI(t, "-app", "fft", "-threads", "8", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var off struct{ Accuracy *struct{} }
	if err := jsonUnmarshal(out, &off); err != nil {
		t.Fatal(err)
	}
	if off.Accuracy != nil {
		t.Error("accuracy section present without accuracy flags")
	}
}
