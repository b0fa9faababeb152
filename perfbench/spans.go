package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval: a call into a layer, or a pass that groups
// such calls. Spans stay in memory until the traced run writes them out.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
}

// tracer records spans from the benchmark's own code, around its calls into
// the layers. A disabled tracer records nothing and reads no clock, which is
// how the traced run measures its own overhead.
type tracer struct {
	t0    time.Time
	off   bool
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t.off {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t.off {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a finished span measured outside this process, such as the
// phases of a child process split at its marker.
func (t *tracer) add(name string, start, end time.Time) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
}

// mark returns the index the next span will get; spans from a mark to a
// later mark belong to one pass.
func (t *tracer) mark() int { return len(t.spans) }

// self sums, over the spans named name in [from, to), each span's duration
// minus the durations of its direct children: the layer's self time.
func (t *tracer) self(from, to int, name string) time.Duration {
	var d int64
	for i := from; i < to; i++ {
		s := t.spans[i]
		if s.Name == name {
			d += s.End - s.Start
		}
		if s.Parent >= from && t.spans[s.Parent].Name == name {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}

// total sums the durations of the spans named name in [from, to).
func (t *tracer) total(from, to int, name string) time.Duration {
	var d int64
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
