package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The tracer of the layered replay. Every span is recorded from this
// package, around calls into a layer's public functions (spans inside the
// program are a later change); spans stay in memory and are written to -out
// when the run ends.

// span is one timed batch of calls into one layer. Busy is the time spent
// inside the calls; for a batch of identical back-to-back calls it is
// End − Start, for calls interleaved with other layers' (pick, then charge,
// then pick …) it is the sum of the laps between clock reads.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Task   int64  `json:"task"`   // batch number within its op, or the task's sequence number
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
}

type tracer struct {
	spans []span
	// lapCost is the calibrated cost of one lap (a clock read and the
	// accumulator update), subtracted once per timed call or batch so that
	// clock reads cost the reported figures well under 2 %.
	lapCost float64
}

func newTracer() *tracer {
	tr := &tracer{spans: make([]span, 0, 1<<14)}
	// Calibrate on an empty op: laps of nothing cost exactly the overhead.
	best := 1e18
	for round := 0; round < 16; round++ {
		probe := &op{tr: tr}
		l := tr.lapper()
		for i := 0; i < 4096; i++ {
			l.lap(probe)
		}
		if c := float64(probe.ns) / float64(probe.calls); c < best {
			best = c
		}
	}
	tr.lapCost = best
	return tr
}

// begin opens a parent span; end closes it.
func (tr *tracer) begin(name string, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Start: nowNs(), Parent: parent})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	s := &tr.spans[id]
	s.End = nowNs()
	s.Busy = s.End - s.Start
}

// op accumulates one kind of public call. Calls are timed in batches; each
// flushed batch leaves one span and one per-call figure, and the op's value
// is the median over its batches, so that one burst of interference from
// the host moves one batch and not the result.
type op struct {
	tr      *tracer
	name    string
	parent  int
	ns      int64 // current batch: time inside the calls
	calls   int64
	laps    int64 // clock reads charged to the current batch
	started int64
	batches int64
	perCall []float64
}

func (tr *tracer) op(name string, parent int) *op {
	return &op{tr: tr, name: name, parent: parent}
}

// flush closes the current batch.
func (o *op) flush() {
	if o.calls == 0 {
		return
	}
	now := nowNs()
	o.tr.spans = append(o.tr.spans, span{Name: o.name, Start: o.started, End: now,
		Parent: o.parent, Task: o.batches, Calls: o.calls, Busy: o.ns})
	v := (float64(o.ns) - float64(o.laps)*o.tr.lapCost) / float64(o.calls)
	if v < 0 {
		v = 0
	}
	o.perCall = append(o.perCall, v)
	o.batches++
	o.ns, o.calls, o.laps, o.started = 0, 0, 0, 0
}

// ns per call, the median over the flushed batches.
func (o *op) value() float64 {
	o.flush()
	return median(o.perCall)
}

// batch times calls identical back-to-back calls made by fn as one span.
func (o *op) batch(calls int, fn func()) {
	o.flush()
	start := nowNs()
	fn()
	o.ns = nowNs() - start
	o.started, o.calls, o.laps = start, int64(calls), 1
	o.flush()
}

// lapper times calls of different ops interleaved in one loop: lap(o)
// charges the time since the previous lap (or skip) to o.
type lapper struct{ last int64 }

func (tr *tracer) lapper() *lapper { return &lapper{last: nowNs()} }

func (l *lapper) lap(o *op) {
	now := nowNs()
	if o.calls == 0 {
		o.started = l.last
	}
	o.ns += now - l.last
	o.calls++
	o.laps++
	l.last = now
}

// skip leaves the time since the previous lap uncharged (harness work
// between two timed calls).
func (l *lapper) skip() { l.last = nowNs() }

// writeSpans writes the spans, and the live task spans of a traced flood, as
// one JSON document.
func (tr *tracer) writeSpans(path string, tasks []taskSpan, h hostRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	doc := struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
		Tasks []taskSpan `json:"live_flood_tasks"`
	}{h, tr.spans, tasks}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// budgetRow is one line of a layer budget.
type budgetRow struct {
	name string
	ns   float64
}

// printBudget prints a layer budget: rows that sum to the live figure in
// the last line, with each row's share of it.
func printBudget(w io.Writer, title, totalName string, total float64, rows []budgetRow) {
	fmt.Fprintf(w, "\n%s\n", title)
	var sum float64
	for _, r := range rows {
		sum += r.ns
		fmt.Fprintf(w, "  %-34s %12.1f ns %6.1f %%\n", r.name, r.ns, 100*r.ns/total)
	}
	fmt.Fprintf(w, "  %-34s %12.1f ns %6.1f %%  (= %s %.1f ns)\n", "sum", sum, 100*sum/total, totalName, total)
}
