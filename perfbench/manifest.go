package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"commprof"
)

// manifest records what a result was measured on and with: ROADMAP aim 1's
// "every row records its host".
type manifest struct {
	Workload   string
	Seed       int64
	Commit     string
	SourceHash string // sha256 over the checkout's Go sources and go.mod files
	GoVersion  string
	GOMAXPROCS int
	NProc      int
	CPUModel   string
	// Options of the workload's facade calls: Source generates the access
	// stream (Record, or Profile itself), Analysis is the measured call.
	Source, Analysis *commprof.Options `json:",omitempty"`
	// ProbeTarget is the program probe-record instruments and runs.
	ProbeTarget string `json:",omitempty"`
}

func newManifest(cfg *config) *manifest {
	m := &manifest{
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Commit:     gitCommit(cfg.root),
		SourceHash: sourceHash(cfg.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      cfg.nproc,
		CPUModel:   cpuModel(),
	}
	if w := cfg.workload; w.source != nil {
		src, an := w.source(cfg.seed), w.analysis(cfg.seed, cfg.nproc)
		m.Source, m.Analysis = &src, &an
	} else {
		m.ProbeTarget = targetDir + " (COMMPROF_TRACE record mode, seed as its input)"
	}
	return m
}

// gitCommit is the checked-out commit, or "unknown" where the checkout is
// not a git repository; SourceHash identifies the code either way.
func gitCommit(root string) string {
	cmd := osexec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
