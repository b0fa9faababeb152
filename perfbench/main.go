// Command perfbench is commprof's benchmark. One invocation runs one
// workload for a fixed time and prints every metric as one JSON line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics: it sets the workload up
// three times in fresh processes, then runs it as one batch job per child
// process, one after another (closed loop, one caller), until --seconds
// have passed, and reports medians. Every run's output is checked against an
// exact oracle and an untimed reference run. With --trace 1 it makes the
// separate traced decomposition run instead (see traced.go).
//
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every mode needs to know about the invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	root     string // repository checkout the benchmark runs from
	work     string // per-invocation scratch directory under .bench_build
	nproc    int
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measurement time in seconds")
		traced   = flag.Int("trace", 0, "1 makes the traced decomposition run instead of the end-to-end runs")
		child    = flag.String("child", "", "internal: run one setup or one run in this process (setup|run)")
		out      = flag.String("out", "", "internal: where a child writes its result")
		work     = flag.String("work", "", "internal: the parent's scratch directory")
		selftest = flag.Bool("selftest", false, "show that the correctness checks catch planted faults, then exit")
	)
	flag.Parse()
	nproc := runtime.NumCPU()
	// Go 1.24 sets GOMAXPROCS from the CPU count and ignores a container's
	// CPU quota; pin it so every run and child uses the same value.
	runtime.GOMAXPROCS(nproc)

	if *selftest {
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test:", err)
			return 1
		}
		fmt.Println("perfbench: self-test passed: planted matrix cell and dropped record were both caught")
		return 0
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	cfg := &config{workload: w, seed: *seed, seconds: *seconds, root: root, work: *work, nproc: nproc}

	if *child != "" {
		if err := runChild(cfg, *child, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	printJSON("manifest", newManifest(cfg))
	var res *result
	if *traced == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = endToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// repoRoot is the working directory, which must be a commprof checkout: the
// benchmark builds and instruments the code it finds there.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil || !strings.HasPrefix(string(b), "module commprof\n") {
		return "", errors.New("run from the root of a commprof checkout (no go.mod declaring module commprof here)")
	}
	if err := os.MkdirAll(filepath.Join(dir, ".bench_build"), 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// printJSON prints one labelled JSON line before the result line.
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", label, err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
