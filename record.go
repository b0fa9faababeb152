package commprof

import (
	"errors"
	"fmt"
	"io"

	"commprof/internal/trace"
)

// Record profiles the named bundled workload while also recording its full
// access trace (with the static region table) to w in the binary trace
// format selected by Options.TraceFormat (default v3, the compact
// delta/varint block encoding), for later offline analysis with Replay.
// This is the workflow the paper contrasts with on-the-fly analysis: trace
// files grow with execution length — the radix simlarge trace is tens of MB
// as fixed v1 records, several times smaller as v3, where the live
// profiler's signature stays fixed — which is precisely why DiscoPoP
// analyses online. The report is the one Profile returns for the same
// Options; Parallel is rejected with an *OptionsError, because a recording
// needs one global access order.
func Record(opts Options, w io.Writer) (*Report, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Parallel {
		return nil, &OptionsError{Field: "Parallel", Err: errors.New("a recording needs one global access order, which free-running threads do not have")}
	}
	stream := &trace.Stream{}
	rep, err := profileSplash(opts, stream)
	if err != nil {
		return nil, err
	}
	if err := stream.EncodeVersion(w, opts.TraceFormat, opts.Threads); err != nil {
		return nil, fmt.Errorf("commprof: write trace: %w", err)
	}
	return rep, nil
}

// Replay runs the profiler offline over a trace previously written by
// Record. threads must match the recording's thread count (the matrix
// dimension); it is validated against the trace contents. For a v2/v3 trace
// — one recorded from a real goroutine program, whose header carries the
// final goroutine count the shim registered — threads may be 0, meaning
// "use the count the trace declares". All codec versions replay.
//
// Replay decodes the trace incrementally and in batches: the region table
// is read up front and each decoded batch then flows straight into the
// analyser (Decoder.NextBatch into a reused buffer), so resident memory is
// O(region table + one batch) for the serial detector and O(region table +
// shard queues + staging) with AnalysisShards — never O(accesses). A
// truncated or corrupt access section fails with "record i of n" context
// after the prefix before it has been analysed.
func Replay(r io.Reader, threads int, opts Options) (*Report, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if threads < 0 {
		return nil, fmt.Errorf("commprof: threads must be non-negative, got %d", threads)
	}
	dec, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		if threads = dec.Threads(); threads == 0 {
			return nil, fmt.Errorf("commprof: threads 0 requires a v2 or v3 trace that declares its goroutine count; this trace does not")
		}
	}
	s, err := newSession("replay", opts, threads, dec.Table(), true)
	if err != nil {
		return nil, err
	}
	dec.Probes = s.probes.TraceProbes()
	// Decode time is observed inside the decoder, the analyser side of each
	// batch in the session's batch loop.
	dec.Stages = s.probes.StageProbes()
	return s.runBatches(dec.NextBatch)
}
