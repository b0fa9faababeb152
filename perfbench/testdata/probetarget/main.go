// Command probetarget is the probe-dense goroutine program the probe-record
// workload instruments, builds and runs. Each round starts one producer
// goroutine, which fills one half of a shared array with seeded
// pseudo-random values, and one consumer goroutine, which sums the other
// half (the one the previous round's producer filled). The halves swap every
// round, so every consumer reads what another goroutine wrote. The two
// workers of a round are live together but take turns chunk by chunk, so
// the order of their accesses, and with it the recorded trace, does not
// depend on how the OS schedules them; the interleaved chunks still reach
// the probe shim's collector out of clock order, so its Shutdown sort has
// real work.
//
// Usage: probetarget <seed> <marker-file>
//
// Before main returns, a deferred call writes the marker file: the wall
// clock at that moment, the heap allocations so far in objects and bytes,
// the share of CPU time the GC took, the program's checksum and the number
// of shared accesses each goroutine made as the program itself counts them. The instrumented build defers the probe shim's
// Shutdown first, so the marker is written after the work and before
// Shutdown sorts and encodes the trace.
package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

const (
	rounds = 8
	half   = 1 << 16
	chunk  = 1 << 12 // elements a worker handles per turn
)

var (
	data   [2 * half]int64
	sums   [rounds]int64
	counts [2 * rounds]int64
)

// tally is what the program reports about itself. Main's count is slot 0;
// worker k of the run is slot k+1.
type tally struct {
	checksum int64
	counts   [2*rounds + 1]int64
}

// produce fills data[lo:lo+half], one chunk per turn.
func produce(slot, lo int, x uint64, mine, theirs chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var n int64
	for c := lo; c < lo+half; c += chunk {
		<-mine
		for i := c; i < c+chunk; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			data[i] = int64(x >> 33)
			n++
		}
		theirs <- struct{}{}
	}
	counts[slot] = n + 1
}

// consume sums data[lo:lo+half], starting off elements in, one chunk per
// turn.
func consume(slot, round, lo, off int, mine, theirs chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var s, n int64
	for c := 0; c < half; c += chunk {
		<-mine
		for i := c; i < c+chunk; i++ {
			s += data[lo+(i+off)%half]
			n++
		}
		theirs <- struct{}{}
	}
	sums[round] = s
	counts[slot] = n + 2
}

func run(seed uint64) tally {
	var t tally
	x := seed | 1
	for i := 0; i < 2*half; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = int64(x >> 33)
		t.counts[0]++
	}
	off := int(seed % half)
	for r := 0; r < rounds; r++ {
		// Buffered so the last hand-over of a round does not block.
		pturn, cturn := make(chan struct{}, 1), make(chan struct{}, 1)
		pturn <- struct{}{}
		var wg sync.WaitGroup
		wg.Add(2)
		go produce(2*r, (r%2)*half, seed+uint64(r), pturn, cturn, &wg)
		go consume(2*r+1, r, ((r+1)%2)*half, off, cturn, pturn, &wg)
		wg.Wait()
	}
	for k := 0; k < 2*rounds; k++ {
		t.counts[k+1] = counts[k]
		t.counts[0]++
	}
	for r := 0; r < rounds; r++ {
		t.checksum += sums[r]
		t.counts[0]++
	}
	return t
}

// writeMarker records the marker line. It reads only its own parameters, so
// the instrumenter adds no probes to it.
func writeMarker(path string, t tally) {
	var rt [4]metrics.Sample
	rt[0].Name = "/gc/heap/allocs:objects"
	rt[1].Name = "/gc/heap/allocs:bytes"
	rt[2].Name = "/cpu/classes/gc/total:cpu-seconds"
	rt[3].Name = "/cpu/classes/total:cpu-seconds"
	metrics.Read(rt[:])
	line := strconv.AppendInt(nil, time.Now().UnixNano(), 10)
	line = append(line, ' ')
	line = strconv.AppendUint(line, rt[0].Value.Uint64(), 10)
	line = append(line, ' ')
	line = strconv.AppendUint(line, rt[1].Value.Uint64(), 10)
	line = append(line, ' ')
	line = strconv.AppendFloat(line, rt[2].Value.Float64()/max(rt[3].Value.Float64(), 1e-9), 'g', -1, 64)
	line = append(line, ' ')
	line = strconv.AppendInt(line, t.checksum, 10)
	for _, c := range t.counts {
		line = append(line, ' ')
		line = strconv.AppendInt(line, c, 10)
	}
	line = append(line, '\n')
	if err := os.WriteFile(path, line, 0o644); err != nil {
		os.Stderr.WriteString("probetarget: " + err.Error() + "\n")
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) != 3 {
		os.Stderr.WriteString("usage: probetarget <seed> <marker-file>\n")
		os.Exit(2)
	}
	seed, err := strconv.ParseUint(os.Args[1], 10, 64)
	if err != nil {
		os.Stderr.WriteString("probetarget: bad seed: " + err.Error() + "\n")
		os.Exit(2)
	}
	t := run(seed)
	// os.Args is a package variable, so the instrumented build also probes
	// main's three reads of it: the length check and the two arguments.
	t.counts[0] += 3
	defer writeMarker(os.Args[2], t)
}
