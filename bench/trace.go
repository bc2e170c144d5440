package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// Spans are recorded by the benchmark itself, around the calls it makes
// into each layer; nothing inside af or aserver is instrumented. Every
// measured cycle is one root span whose children are the cycle's ops.

// span is one timed interval. op indexes the workload's ops (-1 for the
// cycle itself); parent indexes the same tracer's spans (-1 for a root);
// cycle is the identifier every span of one cycle shares.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	cycle      uint32
	op         int8
}

// cycleSpan is the op of a span that covers a whole cycle.
const cycleSpan = -1

// tracer is the driver's span buffer: preallocated, appended to without
// locks, and written out only after the run. A nil tracer is
// the tracing-off state; begin and end are then no-ops.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int // spans not recorded because the buffer was full
}

// maxSpans bounds the buffer (32 B a span). A 4 s traced run of the
// fastest workload records about a million spans.
const maxSpans = 2 << 20

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, maxSpans)}
}

func (t *tracer) begin(op int, parent int32, cycle uint32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		start: int64(time.Since(t.epoch)), parent: parent, cycle: cycle, op: int8(op),
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// merged and children are clipped to the parent, so a span's self time is
// never negative and never counts a covered nanosecond twice.
func selfTimes(spans []span) []int64 {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		switch {
		case spans[a].start < spans[b].start:
			return -1
		case spans[a].start > spans[b].start:
			return 1
		}
		return 0
	})
	covered := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans)) // end of the merged child cover so far
	for i := range coveredTo {
		coveredTo[i] = spans[i].start
	}
	for _, ci := range order {
		c := spans[ci]
		if c.parent < 0 {
			continue
		}
		p := spans[c.parent]
		s, e := max(c.start, coveredTo[c.parent]), min(c.end, p.end)
		if e > s {
			covered[c.parent] += e - s
			coveredTo[c.parent] = e
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// spanMedians returns the median duration of each op's spans and the
// median self time of the cycle spans (the harness's own share: clock
// reads, verification, bookkeeping).
func spanMedians(t *tracer, nops int) (dur []float64, cycleSelf float64) {
	byOp := make([][]uint32, nops)
	var selfs []uint32
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		switch {
		case s.end == 0: // cut off by the end of the window
		case s.op == cycleSpan:
			selfs = append(selfs, uint32(self[i]))
		default:
			byOp[s.op] = append(byOp[s.op], uint32(s.end-s.start))
		}
	}
	for _, samples := range byOp {
		dur = append(dur, medianNs(samples))
	}
	return dur, medianNs(selfs)
}

// ladderTurn is one turn of one rung of the layer ladder: calls timed
// cycles at one layer, a span under the trace's "ladder" root.
type ladderTurn struct {
	layer      string
	start, end int64
	calls      int
}

// ladderMedian is what a rung's turns add up to for one op of the cycle.
type ladderMedian struct {
	layer, op string
	calls     int
	ns        float64
}

// traceFileSpans caps the spans written: enough cycles to read a trace by
// eye or script without writing every one of a million spans.
const traceFileSpans = 100000

// sep separates the elements of a JSON array: a comma after all but the
// last of n.
func sep(i, n int) string {
	if i == n-1 {
		return ""
	}
	return ","
}

// writeTrace writes the run's spans to path as one JSON document.
func writeTrace(path string, env *runEnv, w *workload, t *tracer, g *rungs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n := min(len(t.spans), traceFileSpans)
	fmt.Fprintf(bw, "{\"env\": %s,\n", env.json())
	fmt.Fprintf(bw, " \"note\": \"times are ns since the trace epoch; parent is a span id, -1 for a root; the spans of one cycle share cycle; conn is the client connection that made the call\",\n")
	fmt.Fprintf(bw, " \"spans_recorded\": %d, \"spans_dropped\": %d, \"spans_written\": %d,\n \"spans\": [\n", len(t.spans), t.dropped, n)
	for i, s := range t.spans[:n] {
		name, conn := "cycle", -1
		if s.op != cycleSpan {
			name, conn = spanNames[w.ops[s.op].kind], w.ops[s.op].conn
		}
		fmt.Fprintf(bw, "  {\"id\": %d, \"name\": %q, \"conn\": %d, \"parent\": %d, \"cycle\": %d, \"start\": %d, \"end\": %d}%s\n",
			i, name, conn, s.parent, s.cycle, s.start, s.end, sep(i, n))
	}
	fmt.Fprintf(bw, " ],\n \"ladder\": {\"name\": \"ladder\", \"turns\": [\n")
	for i, l := range g.turns {
		fmt.Fprintf(bw, "  {\"name\": \"ladder/%s\", \"parent\": \"ladder\", \"start\": %d, \"end\": %d, \"calls\": %d}%s\n",
			l.layer, l.start, l.end, l.calls, sep(i, len(g.turns)))
	}
	fmt.Fprintf(bw, " ], \"rungs\": [\n")
	for i, m := range g.medians {
		fmt.Fprintf(bw, "  {\"name\": \"ladder/%s/%s\", \"calls\": %d, \"median_ns\": %.1f}%s\n",
			m.layer, m.op, m.calls, m.ns, sep(i, len(g.medians)))
	}
	fmt.Fprintf(bw, " ]}\n}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
