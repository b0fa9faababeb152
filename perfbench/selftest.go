package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"commprof"
	"commprof/internal/exec"
	"commprof/internal/trace"
)

// selfTest shows that the benchmark's correctness checks catch the faults
// they exist for. It checks the oracle on a hand-worked stream, then takes a
// small real run that passes every check, plants one wrong matrix cell in
// its report and drops one record from its trace, and requires each check
// to reject the planted fault.
func selfTest() error {
	if err := oracleByHand(); err != nil {
		return err
	}
	src := commprof.Options{Workload: "fft", InputSize: "simdev", Threads: 4, Seed: 7}
	rep, err := commprof.Profile(src)
	if err != nil {
		return err
	}
	o, err := splashOracle(src)
	if err != nil {
		return err
	}
	refDigest, err := digest(rep)
	if err != nil {
		return err
	}
	ref := &setupResult{Accesses: o.count, Oracle: o.matrix, Digest: refDigest}
	good, err := runResultOf(rep)
	if err != nil {
		return err
	}
	if err := checkRun(good, ref); err != nil {
		return fmt.Errorf("an unmodified run fails its checks: %w", err)
	}

	// Plant one wrong cell: one byte more from thread 0 to thread 1.
	bad := *rep
	bad.Global.Bytes = make([][]uint64, len(rep.Global.Bytes))
	for i, row := range rep.Global.Bytes {
		bad.Global.Bytes[i] = slices.Clone(row)
	}
	bad.Global.Bytes[0][1]++
	planted, err := runResultOf(&bad)
	if err != nil {
		return err
	}
	if err := checkRun(planted, ref); err == nil {
		return errors.New("a report with a planted matrix cell passed the checks")
	}
	if mustRelError(good.Global, o.matrix) == mustRelError(planted.Global, o.matrix) {
		return errors.New("the planted matrix cell did not move matrix_rel_error")
	}

	// Drop one record from the trace of the same stream.
	s, err := collect(src)
	if err != nil {
		return err
	}
	counts := make([]int64, src.Threads)
	for _, a := range s.Accesses {
		counts[a.Thread]++
	}
	var full, dropped bytes.Buffer
	if err := s.EncodeVersion(&full, 3, src.Threads); err != nil {
		return err
	}
	if _, err := checkProbeTrace(bytes.NewReader(full.Bytes()), counts); err != nil {
		return fmt.Errorf("an unmodified trace fails its checks: %w", err)
	}
	short := &trace.Stream{Table: s.Table, Accesses: slices.Delete(slices.Clone(s.Accesses), len(s.Accesses)/2, len(s.Accesses)/2+1)}
	if err := short.EncodeVersion(&dropped, 3, src.Threads); err != nil {
		return err
	}
	if _, err := checkProbeTrace(bytes.NewReader(dropped.Bytes()), counts); err == nil {
		return errors.New("a trace with a dropped record passed the checks")
	}
	corrupt := slices.Clone(full.Bytes())
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := checkProbeTrace(bytes.NewReader(corrupt), counts); err == nil {
		return errors.New("a trace with a flipped byte passed the strict decode")
	}
	return nil
}

// oracleByHand runs the oracle over the paper's Fig. 2 situation and
// compares with the matrix worked out by hand.
func oracleByHand() error {
	const a = 0x1000
	acc := func(kind trace.Kind, tid int32) trace.Access {
		return trace.Access{Kind: kind, Addr: a, Size: 8, Thread: tid}
	}
	o := newOracle(3)
	for _, x := range []trace.Access{
		acc(trace.Read, 1),  // no writer yet
		acc(trace.Write, 0), // epoch of writer 0
		acc(trace.Read, 1),  // 0 -> 1
		acc(trace.Read, 1),  // not the first read of the epoch
		acc(trace.Read, 2),  // 0 -> 2
		acc(trace.Read, 0),  // the writer itself
		acc(trace.Write, 1), // epoch of writer 1
		acc(trace.Read, 2),  // 1 -> 2 again, new epoch
		acc(trace.Read, 1),  // the writer itself
	} {
		if err := o.observe(x); err != nil {
			return err
		}
	}
	want := [][]uint64{{0, 8, 8}, {0, 0, 8}, {0, 0, 0}}
	for i := range want {
		if !slices.Equal(o.matrix[i], want[i]) {
			return fmt.Errorf("oracle matrix %v, worked by hand %v", o.matrix, want)
		}
	}
	return nil
}

func runResultOf(rep *commprof.Report) (*runResult, error) {
	r := &runResult{Accesses: rep.Accesses, Global: rep.Global.Bytes}
	if err := checkSummationLaw(rep); err != nil {
		r.LawErr = err.Error()
	}
	var err error
	r.Digest, err = digest(rep)
	return r, err
}

func mustRelError(got, want [][]uint64) float64 {
	e, err := relError(got, want)
	if err != nil {
		return -1
	}
	return e
}

// collect records a SPLASH workload's access stream on the deterministic
// engine, as Record does.
func collect(src commprof.Options) (*trace.Stream, error) {
	prog, err := splashProgram(src)
	if err != nil {
		return nil, err
	}
	s := &trace.Stream{Table: prog.Table()}
	eng := exec.New(exec.Options{Threads: src.Threads, Probe: func(a trace.Access) { s.Accesses = append(s.Accesses, a) }})
	_, err = prog.Run(eng)
	return s, err
}
