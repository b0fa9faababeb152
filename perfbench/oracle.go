package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"commprof"
	"commprof/internal/trace"
)

// oracle is an exact inter-thread RAW detector written from Algorithm 1 of
// the paper and nothing else: one last writer per address and, per write
// epoch, the set of threads that already read the address. A read by thread
// r counts size bytes from writer w to r when w exists, w != r and r has not
// read the address since the last write. Every write starts a new epoch.
// It shares no code with internal/detect or internal/sig, so the profiler's
// signature errors show up as a distance from it.
type oracle struct {
	threads int
	words   int
	index   map[uint64]int32 // address -> entry index
	writer  []int32          // last writer, -1 when never written
	readers []uint64         // entry i owns readers[i*words : (i+1)*words]
	matrix  [][]uint64       // bytes[writer][reader]
	count   uint64
}

func newOracle(threads int) *oracle {
	m := make([][]uint64, threads)
	for i := range m {
		m[i] = make([]uint64, threads)
	}
	return &oracle{
		threads: threads,
		words:   (threads + 63) / 64,
		index:   make(map[uint64]int32),
		matrix:  m,
	}
}

func (o *oracle) entry(addr uint64) int32 {
	i, ok := o.index[addr]
	if !ok {
		i = int32(len(o.writer))
		o.index[addr] = i
		o.writer = append(o.writer, -1)
		o.readers = append(o.readers, make([]uint64, o.words)...)
	}
	return i
}

// observe applies one access. It reports an error for a thread outside the
// matrix, which would mean the stream and the thread count disagree.
func (o *oracle) observe(a trace.Access) error {
	if a.Thread < 0 || int(a.Thread) >= o.threads {
		return fmt.Errorf("oracle: access %d has thread %d outside [0,%d)", o.count, a.Thread, o.threads)
	}
	o.count++
	i := o.entry(a.Addr)
	set := o.readers[int(i)*o.words : int(i+1)*o.words]
	if a.Kind == trace.Write {
		o.writer[i] = a.Thread
		clear(set)
		return nil
	}
	word, bit := a.Thread/64, uint64(1)<<(a.Thread%64)
	first := set[word]&bit == 0
	set[word] |= bit
	if w := o.writer[i]; w >= 0 && w != a.Thread && first {
		o.matrix[w][a.Thread] += uint64(a.Size)
	}
	return nil
}

func matrixTotal(m [][]uint64) uint64 {
	var t uint64
	for _, row := range m {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// relError is the L1 distance between a report matrix and the oracle matrix,
// divided by the oracle's total volume.
func relError(got, want [][]uint64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("matrix has %d rows, oracle has %d", len(got), len(want))
	}
	var dist uint64
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return 0, fmt.Errorf("matrix row %d has %d columns, oracle has %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g > w {
				dist += g - w
			} else {
				dist += w - g
			}
		}
	}
	total := matrixTotal(want)
	if total == 0 {
		return 0, fmt.Errorf("oracle matrix is empty")
	}
	return float64(dist) / float64(total), nil
}

// checkSummationLaw re-checks the paper's summation law on a finished report
// from its public fields alone: every region's cumulative volume is its own
// volume plus its children's cumulative volumes, every region matrix sums to
// its cumulative volume, the global matrix sums to the reported
// communication volume, and the top-level regions account for no more than
// the global volume.
func checkSummationLaw(rep *commprof.Report) error {
	if g := rep.Global.Total(); g != rep.CommBytes {
		return fmt.Errorf("global matrix sums to %d bytes, report says %d", g, rep.CommBytes)
	}
	var roots uint64
	for i, r := range rep.Regions {
		if t := r.Matrix.Total(); t != r.CumulativeBytes {
			return fmt.Errorf("region %s: matrix sums to %d, cumulative is %d", r.Name, t, r.CumulativeBytes)
		}
		want := r.OwnBytes
		for _, c := range rep.Regions[i+1:] {
			if c.Depth <= r.Depth {
				break
			}
			if c.Depth == r.Depth+1 {
				want += c.CumulativeBytes
			}
		}
		if want != r.CumulativeBytes {
			return fmt.Errorf("region %s: own+children is %d bytes, cumulative is %d", r.Name, want, r.CumulativeBytes)
		}
		if r.Depth == 0 {
			roots += r.CumulativeBytes
		}
	}
	if roots > rep.CommBytes {
		return fmt.Errorf("top-level regions hold %d bytes, more than the global %d", roots, rep.CommBytes)
	}
	return nil
}

// digest hashes the deterministic content of a report: counts, matrices,
// the region tree, hotspots, phases and the redundancy and accuracy
// verdicts. Scheduling-dependent fields (queue depths, telemetry, overhead
// timings) are left out, so two runs of one configuration on one input must
// agree.
func digest(rep *commprof.Report) (string, error) {
	type canon struct {
		Accesses, Dependencies, CommBytes uint64
		Global                            commprof.Matrix
		Regions                           []commprof.RegionReport
		Hotspots                          []commprof.HotspotReport
		Phases                            []commprof.PhaseReport
		Timeline                          *commprof.PhaseTimelineReport
		Redundancy                        *commprof.RedundancyReport
		AccuracyEvents, AccuracyFP        uint64
		ShardProcessed                    []uint64
		DroppedReads                      uint64
	}
	c := canon{
		Accesses: rep.Accesses, Dependencies: rep.Dependencies, CommBytes: rep.CommBytes,
		Global: rep.Global, Regions: rep.Regions, Hotspots: rep.Hotspots,
		Phases: rep.Phases, Timeline: rep.PhaseTimeline, Redundancy: rep.Redundancy,
	}
	if a := rep.Accuracy; a != nil {
		c.AccuracyEvents, c.AccuracyFP = a.SigEvents, a.FalsePositives
	}
	if p := rep.Pipeline; p != nil {
		c.ShardProcessed, c.DroppedReads = p.ShardProcessed, p.DroppedReads
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
