package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanName names a span: the layer before the dot, the call after it.
type spanName uint8

const (
	spParallelRun spanName = iota
	spLoadgenTrial
	spLoadgenOp
	spFaultSample
	spCoreContain
	spChurnNext
	spFtnetMutate
	spFtnetReembed
	spClientPost
	spClientWatch
	spWireGet
	spWireDecode
	spWireApply
	spBenchCheck
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spParallelRun:  "parallel.run",
	spLoadgenTrial: "loadgen.trial",
	spLoadgenOp:    "loadgen.op",
	spFaultSample:  "fault.sample",
	spCoreContain:  "core.contain",
	spChurnNext:    "churn.next",
	spFtnetMutate:  "ftnet.mutate",
	spFtnetReembed: "ftnet.reembed",
	spClientPost:   "client.post",
	spClientWatch:  "client.watch",
	spWireGet:      "wire.get",
	spWireDecode:   "wire.decode",
	spWireApply:    "wire.apply",
	spBenchCheck:   "bench.check",
}

func (n spanName) layer() string { return strings.SplitN(spanNames[n], ".", 2)[0] }

// span is one recorded call into a layer. Times are offsets from the
// tracer's base on the monotonic clock; parent is the index of the
// enclosing span, -1 for a root; op identifies the operation.
type span struct {
	name       spanName
	parent     int32
	op         int64
	start, end time.Duration
}

// tracer keeps spans in memory; they are written out once the run ends.
// It is driven by one goroutine at a time. While off, begin returns -1
// and end ignores it, so the untraced path costs one branch per call.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(n spanName, parent int32, op int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: n, parent: parent, op: op, start: time.Since(t.base)})
	return int32(len(t.spans) - 1)
}

// beginAt is begin with an explicit start, for an open-loop operation
// that is timed from when it was due.
func (t *tracer) beginAt(n spanName, parent int32, op int64, at time.Time) int32 {
	id := t.begin(n, parent, op)
	if id >= 0 {
		t.spans[id].start = at.Sub(t.base)
	}
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.base)
	}
}

// add records a span measured elsewhere (on another goroutine).
func (t *tracer) add(n spanName, parent int32, op int64, start, end time.Time) {
	t.spans = append(t.spans, span{name: n, parent: parent, op: op, start: start.Sub(t.base), end: end.Sub(t.base)})
}

// durations returns the lengths of every span named n.
func (t *tracer) durations(n spanName) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == n {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// quantileUS and quantileMS are the q-quantile of span n's durations.
func (t *tracer) quantileUS(n spanName, q float64) (float64, int) {
	d := t.durations(n)
	xs := make([]float64, len(d))
	for i, v := range d {
		xs[i] = us(v)
	}
	return quantile(xs, q), len(xs)
}

func (t *tracer) quantileMS(n spanName, q float64) (float64, int) {
	v, k := t.quantileUS(n, q)
	return v / 1000, k
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts of them their child spans cover. Children of one span run
// one after another, so their durations add up.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.name.layer()] += s.end - s.start - child[i]
	}
	return self
}

// reportSelf sets <layer>.self_us_per_op for every layer with spans.
// The bench layer is the correctness checks, which run off the clock.
func (t *tracer) reportSelf(r *report, tracedOps int) {
	if tracedOps == 0 {
		return
	}
	for layer, d := range t.selfTimes() {
		if layer != "bench" {
			r.set(layer+".self_us_per_op", us(d)/float64(tracedOps), tracedOps)
		}
	}
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.name], s.parent, s.op, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
