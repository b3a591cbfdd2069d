package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// options are the inputs of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every workload to one small cycle with no warm-up and
	// no title-scale rows, so the test suite can cover the harness.
	smoke  bool
	outdir string
}

// warmupShare is the discarded warm-up as a share of the timed window
// (the first window after set-up reads low: caches, pools and the
// scheduler are still settling).
const warmupShare = 0.2

// A run sets up at least setupRepeats times and, while set-up is cheap,
// until setupBudget has gone into it or maxSetupRepeats is reached:
// setup_s is the median, and a 0.1 s set-up needs more repeats than a 1.5 s
// one to repeat as well.
const (
	setupRepeats    = 3
	maxSetupRepeats = 9
	setupBudget     = 2 * time.Second
)

// traceShare is the length of each loaded replay of the traced pass as a
// share of the timed window.
const traceShare = 0.25

// layerRounds is how often the serial per-layer pass walks its inputs.
const layerRounds = 2

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps declared metric names to values.
type metrics struct {
	vals map[string]value
	own  map[string]bool // rows this workload set itself
}

func newMetrics(rows []row) metrics {
	m := metrics{vals: map[string]value{}, own: map[string]bool{}}
	for _, r := range rows {
		m.vals[r.Name] = value{0, r.Unit}
	}
	return m
}

// set stores a measured value. Naming an undeclared metric is a bug in
// the harness, not a property of the run.
func (m metrics) set(name string, v float64) {
	cur, ok := m.vals[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	cur.Value = v
	m.vals[name] = cur
	m.own[name] = true
}

// record is one run of one workload: what the last stdout line carries,
// plus the environment and counts the -out ledger keeps.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Env       environment      `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"`
	Cycles    int              `json:"cycles"`
	Metrics   map[string]value `json:"metrics"`
	// Ungated holds the untraced pass's latency percentiles: printed and
	// kept in the ledger, but not part of the contract's metric set.
	Ungated map[string]value `json:"ungated,omitempty"`
	Errors  []string         `json:"errors,omitempty"`

	own map[string]bool
}

// workload names one traffic mix and knows how to set it up.
type workload struct {
	name  string
	setup func(o options) (*instance, error)
}

var workloads = []workload{
	{wlProvisionCold, setupProvisionCold},
	{wlProvisionWarm, setupProvisionWarm},
	{wlStreamIngest, setupStreamIngest},
	{wlStreamReplay, setupStreamReplay},
	{wlPeerFill, setupPeerFill},
	{wlNetsimReplay, setupNetsimReplay},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets the workload up, runs the untraced or the traced
// pass, checks the outputs, and returns the record.
func runWorkload(wl workload, o options) (*record, error) {
	rec := &record{Workload: wl.name, Seed: o.seed, Trace: o.trace, Env: readEnvironment()}

	var in *instance
	var setups []float64
	for begun := time.Now(); ; {
		if n := len(setups); n > 0 {
			once := o.smoke || o.trace
			if once || n == maxSetupRepeats || (n >= setupRepeats && time.Since(begun) >= setupBudget) {
				break
			}
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = wl.setup(o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()
	if in.clients == 0 {
		in.clients = loadClients()
	}

	var failedChecks []error
	var m metrics
	if o.trace {
		m, failedChecks = tracedPass(wl, in, o, rec)
	} else {
		m, failedChecks = timedPass(in, o, rec, median(setups))
	}
	rec.Metrics, rec.own = m.vals, m.own
	rec.Failed += len(failedChecks)
	rec.Attempted += len(failedChecks)
	for _, err := range failedChecks {
		rec.Errors = append(rec.Errors, err.Error())
	}
	for name, v := range rec.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rec.Failed++
			rec.Attempted++
			rec.Errors = append(rec.Errors, fmt.Sprintf("metric %s is not finite", name))
			rec.Metrics[name] = value{0, v.Unit}
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// note records the failures a window saw: the exact counts, and the
// first few messages.
func (rec *record) note(w window) {
	rec.Attempted += w.attempted
	rec.Failed += w.failed
	for _, err := range w.errs {
		rec.Errors = append(rec.Errors, err.Error())
	}
}

// warmAndReset runs the discarded warm-up window and clears counters.
// Warm-up latencies are dropped; its failures still count. It returns
// the next unused cycle number.
func warmAndReset(in *instance, o options, rec *record) int {
	next := 0
	if !o.smoke {
		gen := in.cycle
		if in.warm != nil {
			gen = in.warm
		}
		var w window
		w, next = runCycles(gen, 0, 0, time.Duration(warmupShare*o.seconds*float64(time.Second)), in.clients, nil)
		rec.Failed += w.failed
		rec.Attempted += w.failed
		for _, err := range w.errs {
			rec.Errors = append(rec.Errors, "warm-up: "+err.Error())
		}
	}
	if in.reset != nil {
		in.reset()
	}
	return next
}

// timedPass is the untraced pass every end-to-end metric comes from. The
// returned errors are failed checks, one failure each.
func timedPass(in *instance, o options, rec *record, setupS float64) (metrics, []error) {
	m := newMetrics(endToEndRows)
	next := warmAndReset(in, o, rec)
	fixed := 0
	if o.smoke {
		fixed = 1
	}
	w, _ := runCycles(in.cycle, next, fixed, time.Duration(o.seconds*float64(time.Second)), in.clients, nil)
	rec.note(w)
	rec.Samples, rec.Cycles = len(w.lat), w.cycles
	var failedChecks []error
	if in.check != nil {
		failedChecks = in.check()
	}
	// Every metric but set-up is the median over the window's slices.
	ops := func(s slice) float64 { return math.Max(1, float64(len(s.lat))) }
	m.set("setup_s", setupS)
	m.set("throughput_ops_s", w.over(func(s slice) float64 { return float64(len(s.lat)) / s.seconds }))
	m.set("alloc_mb_per_op", w.over(func(s slice) float64 {
		if len(s.opAllocMB) > 0 {
			return median(s.opAllocMB)
		}
		return s.allocMB / ops(s)
	}))
	m.set("cpu_ms_per_op", w.over(func(s slice) float64 { return s.cpuMS / ops(s) }))
	rec.Ungated = map[string]value{
		"p50_ms": {percentile(w.lat, 50), "ms"},
		"p95_ms": {percentile(w.lat, 95), "ms"},
		"p99_ms": {percentile(w.lat, 99), "ms"},
	}
	return m, failedChecks
}

// tracedPass replays the workload's cycles under the same closed loop —
// spans off, then spans on around every op — runs the workload's serial
// per-layer pass, and derives the per-layer rows. Layer means are taken
// one call at a time, so for the HTTP workloads the gap row is what the
// loaded op costs beyond the sum of its layers: contention and queueing
// between the clients, and anything no span covers.
func tracedPass(wl workload, in *instance, o options, rec *record) (metrics, []error) {
	m := newMetrics(perLayerRows())
	tr := newTracer()
	next := warmAndReset(in, o, rec)
	fixed, d := 0, time.Duration(traceShare*o.seconds*float64(time.Second))
	if o.smoke {
		fixed = 1
	}
	plain, next := runCycles(in.cycle, next, fixed, d, in.clients, nil)
	traced, _ := runCycles(in.cycle, next, fixed, d, in.clients, tr)
	rec.note(plain)
	rec.note(traced)
	rec.Samples, rec.Cycles = len(traced.lat), traced.cycles
	var failedChecks []error
	if in.check != nil {
		failedChecks = in.check()
	}
	if plain.mean() > 0 {
		m.set("harness.trace_overhead_ratio", traced.mean()/plain.mean())
	}
	m.set("load.p50_ms", percentile(plain.lat, 50))
	m.set("load.p95_ms", percentile(plain.lat, 95))
	m.set("load.p99_ms", percentile(plain.lat, 99))
	sum, err := in.layers(layerPass{o: o, tr: tr, m: m, plain: plain, traced: traced})
	if err != nil {
		failedChecks = append(failedChecks, fmt.Errorf("per-layer pass: %w", err))
	}
	for _, h := range httpWorkloads {
		if h == wl.name {
			m.set("gap."+h+"_ms", traced.mean()-sum)
		}
	}
	m.set("env.cpus", float64(rec.Env.CPUs))
	m.set("env.gomaxprocs", float64(rec.Env.GOMAXPROCS))
	m.set("env.load1", rec.Env.Load1)
	if rec.Env.Noisy {
		m.set("env.noisy", 1)
	}
	if err := tr.write(o.outdir, wl.name); err != nil {
		failedChecks = append(failedChecks, fmt.Errorf("writing trace: %w", err))
	}
	return m, failedChecks
}

// layerPass is what a workload's per-layer pass works with.
type layerPass struct {
	o  options
	tr *tracer
	m  metrics
	// plain and traced are the two loaded replays that preceded it.
	plain, traced window
}

// sortedNames returns the metric names in a stable order for printing.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
