package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the harness wraps the layers' public functions. Spans of one
// op share its Op number; Parent is the span that caused this one (0 for
// an op's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends and sums them by name,
// which is all the per-layer means need.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int
	sum   map[string]float64 // ms
	n     map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]float64{}, n: map[string]int{}}
}

// open is a span that has begun.
type open struct {
	t     *tracer
	span  span
	start time.Time
}

// begin opens a span that started at start; a nil parent makes it the
// root of a new op.
func (t *tracer) begin(name string, parent *open, start time.Time) *open {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &open{t: t, start: start, span: span{ID: id, Op: id, Name: name}}
	if parent != nil {
		o.span.Parent, o.span.Op = parent.span.ID, parent.span.Op
	}
	return o
}

// end closes the span and returns its duration in ms.
func (o *open) end() float64 {
	end := time.Now()
	ms := float64(end.Sub(o.start)) / float64(time.Millisecond)
	o.span.StartNS, o.span.EndNS = int64(o.start.Sub(o.t.t0)), int64(end.Sub(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.sum[o.span.Name] += ms
	o.t.n[o.span.Name]++
	o.t.mu.Unlock()
	return ms
}

// call runs fn under a child span of parent.
func (t *tracer) call(name string, parent *open, fn func()) {
	o := t.begin(name, parent, time.Now())
	fn()
	o.end()
}

// mean is the mean duration in ms of the spans called name.
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[name] == 0 {
		return 0
	}
	return t.sum[name] / float64(t.n[name])
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
