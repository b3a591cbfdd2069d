package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxReportedErrors bounds the failures a client keeps verbatim; the count
// is always exact.
const maxReportedErrors = 8

// cycleHeader names the cycle a request belongs to, for workloads whose
// servers are replaced every cycle (see generations).
const cycleHeader = "X-Bench-Cycle"

// windowSlices is how many slices the timed window is cut into, cycle
// lengths permitting.
const windowSlices = 5

// A task is the unit a client draws from the cycle: one op, or one
// stream session whose ops must run in order.
type task func(c *client)

// instance is one set-up of a workload: its inputs and servers.
type instance struct {
	// clients is the closed-loop client count (0 selects loadClients).
	clients int
	// cycle returns the tasks of cycle n. Cycles are the unit of
	// comparison: the timed window always holds whole cycles, so every
	// run measures the same mix.
	cycle func(n int) []task
	// warm, when set, replaces cycle during the discarded warm-up.
	warm func(n int) []task
	// reset is called between the warm-up and the timed window, so
	// counters describe the window alone.
	reset func()
	// check runs after the window: invariants over counters, sampled
	// oracles too costly to run per op. Errors count as failures.
	check func() []error
	// layers is the serial per-layer pass of the traced run: it times
	// calls into each layer's public functions, sets the per-layer rows,
	// and returns the sum of the layer means that make up one op, in ms.
	layers func(p layerPass) (float64, error)
	// close releases listeners and servers.
	close func()
}

// client is one closed-loop caller with its own keep-alive connection
// per host and its own sample buffers (no sharing on the hot path).
type client struct {
	http *http.Client
	tr   *tracer // nil in the untraced pass

	samples   []sample // successful ops only
	done      *atomic.Int64
	t0        time.Time
	attempted int
	failed    int
	errs      []error
}

// sample is one successful op: what it was, how long it took, and when
// in the window it finished.
type sample struct {
	name string
	ms   float64
	at   time.Duration
	// allocMB is the op's own allocation where a workload can attribute
	// it (one caller, nothing else running); negative otherwise.
	allocMB float64
}

func newClient(tr *tracer) *client {
	return &client{
		tr:   tr,
		done: new(atomic.Int64),
		t0:   time.Now(),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		}},
	}
}

// op records one finished operation. A failed op keeps no latency
// sample: it makes the run incorrect instead.
func (c *client) op(name string, start time.Time, err error) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if c.tr != nil && err == nil {
		ms = c.tr.begin(name, nil, start).end()
	}
	c.verify(name, err)
	if err == nil {
		c.samples = append(c.samples, sample{name, ms, time.Since(c.t0), -1})
		c.done.Add(1)
	}
}

// totalAllocMB is the process's cumulative allocation.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// verify records a check made inside the window that is not an op of its
// own (no latency sample): it counts as attempted, and as failed on err.
func (c *client) verify(name string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < maxReportedErrors {
			c.errs = append(c.errs, fmt.Errorf("%s: %w", name, err))
		}
	}
}

// do sends one request and returns the status and body.
func (c *client) do(method, url string, cycle int, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cycle >= 0 {
		req.Header.Set(cycleHeader, fmt.Sprint(cycle))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// expect sends a request whose answer is known byte for byte.
func (c *client) expect(method, url string, cycle int, body, want []byte) error {
	code, got, err := c.do(method, url, cycle, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, url, code, got)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s: wrong output (%d bytes, want %d)", method, url, len(got), len(want))
	}
	return nil
}

// feeder hands out the tasks of successive cycles and stops at the
// first cycle boundary past the deadline, so clients never idle at a
// barrier and the window still holds whole cycles only. At cycle
// boundaries at least sliceLen apart it checkpoints the process's
// counters, cutting the window into slices of whole cycles.
type feeder struct {
	mu       sync.Mutex
	gen      func(n int) []task
	next     int // next cycle to generate
	cycles   int // cycles handed out
	limit    int // stop after this many cycles; 0 = stop on the deadline
	cur      []task
	i        int
	start    time.Time
	deadline time.Time
	sliceLen time.Duration // 0 = one slice
	done     *atomic.Int64
	marks    []checkpoint
}

// checkpoint is the process's counters at one moment of the window.
type checkpoint struct {
	at      time.Duration
	ops     int64
	allocMB float64 // TotalAlloc
	cpuMS   float64 // user+sys
}

func (f *feeder) mark() {
	f.marks = append(f.marks, checkpoint{time.Since(f.start), f.done.Load(), totalAllocMB(), processCPU()})
}

func (f *feeder) draw() task {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.i == len(f.cur) {
		if f.limit > 0 && f.cycles == f.limit {
			return nil
		}
		if f.limit == 0 && f.cycles > 0 && !time.Now().Before(f.deadline) {
			return nil
		}
		if f.sliceLen > 0 && time.Since(f.start)-f.marks[len(f.marks)-1].at >= f.sliceLen {
			f.mark()
		}
		f.cur, f.i = f.gen(f.next), 0
		f.next++
		f.cycles++
	}
	t := f.cur[f.i]
	f.i++
	return t
}

// window is what one phase of load measured.
type window struct {
	cycles    int
	lat       []float64 // ms, sorted
	byName    map[string][]float64
	slices    []slice
	attempted int
	failed    int
	errs      []error
}

// slice is a stretch of the window between two cycle boundaries. The
// end-to-end metrics are medians over the slices' values, so a burst of
// interference — a GC cycle, a noisy neighbour — that lands in one slice
// does not move them.
type slice struct {
	seconds float64
	lat     []float64 // ms, sorted
	allocMB float64   // Δ TotalAlloc
	cpuMS   float64   // Δ (user+sys) of the process
	// opAllocMB holds the ops' own allocations where the workload
	// attributes them (see sample.allocMB).
	opAllocMB []float64
}

// over returns the median over the slices of f's value.
func (w *window) over(f func(s slice) float64) float64 {
	vals := make([]float64, len(w.slices))
	for i, s := range w.slices {
		vals[i] = f(s)
	}
	return median(vals)
}

func (w *window) mean() float64 {
	if len(w.lat) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range w.lat {
		sum += v
	}
	return sum / float64(len(w.lat))
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runCycles drives whole cycles, starting with cycle first, from n
// closed-loop clients until at least d has passed (at least one cycle;
// exactly `fixed` cycles when fixed > 0). It returns the measurements and
// the next unused cycle number.
func runCycles(gen func(int) []task, first, fixed int, d time.Duration, n int, tr *tracer) (window, int) {
	f := &feeder{gen: gen, next: first, limit: fixed, sliceLen: d / windowSlices, done: new(atomic.Int64)}
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(tr)
		clients[i].done = f.done
	}
	f.start = time.Now()
	f.deadline = f.start.Add(d)
	f.mark()
	for _, c := range clients {
		c.t0 = f.start
	}

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				t := f.draw()
				if t == nil {
					return
				}
				t(c)
			}
		}(c)
	}
	wg.Wait()
	f.mark()
	// A last slice much shorter than the others would be the noisiest
	// value in the median: fold it into the one before.
	if k := len(f.marks); k > 2 && f.marks[k-1].at-f.marks[k-2].at < f.sliceLen/2 {
		f.marks = append(f.marks[:k-2], f.marks[k-1])
	}

	w := window{
		cycles: f.cycles,
		byName: map[string][]float64{},
		slices: make([]slice, len(f.marks)-1),
	}
	for i := range w.slices {
		from, to := f.marks[i], f.marks[i+1]
		w.slices[i] = slice{seconds: (to.at - from.at).Seconds(), allocMB: to.allocMB - from.allocMB, cpuMS: to.cpuMS - from.cpuMS}
	}
	for _, c := range clients {
		for _, sm := range c.samples {
			w.lat = append(w.lat, sm.ms)
			w.byName[sm.name] = append(w.byName[sm.name], sm.ms)
			// The slice whose end is the first mark at or after the sample.
			i := sort.Search(len(w.slices)-1, func(i int) bool { return f.marks[i+1].at >= sm.at })
			w.slices[i].lat = append(w.slices[i].lat, sm.ms)
			if sm.allocMB >= 0 {
				w.slices[i].opAllocMB = append(w.slices[i].opAllocMB, sm.allocMB)
			}
		}
		w.attempted += c.attempted
		w.failed += c.failed
		w.errs = append(w.errs, c.errs...)
		c.http.CloseIdleConnections()
	}
	sort.Float64s(w.lat)
	for i := range w.slices {
		sort.Float64s(w.slices[i].lat)
	}
	return w, f.next
}
