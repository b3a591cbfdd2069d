package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// durationBuckets are the cumulative latency histogram upper bounds in
// seconds. They span sub-millisecond cache hits through multi-minute
// P=256 profiling runs.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// Metrics is the service's observability surface, rendered in Prometheus
// text exposition format by WritePrometheus. Counters and the histogram are
// mutex-guarded; gauges are atomics updated on the hot path.
type Metrics struct {
	mu       sync.Mutex
	requests map[[2]string]uint64 // {path, code} → count
	bucket   []uint64             // cumulative counts per durationBuckets entry
	durSum   float64
	durCount uint64

	cacheHits   uint64 // served straight from the plan cache
	cacheMisses uint64 // had to run the pipeline
	coalesced   uint64 // attached to an identical in-flight request
	runs        uint64 // pipeline executions actually started
	rejected    uint64 // 429 backpressure responses
	timeouts    uint64 // 504 deadline responses

	streamDeltas       uint64 // profile deltas folded across all streams
	streamPhases       uint64 // phase boundaries detected (beyond phase 0)
	streamCircuitMoves uint64 // circuits set up + torn down by stream plans
	framesCandidate    uint64 // deltas cut by the canonical-layout guess, proved by the fold
	framesExact        uint64 // deltas the brace matcher had to cut

	inflight       atomic.Int64 // requests currently inside a handler
	queueDepth     atomic.Int64 // requests waiting for a worker slot
	streamSessions atomic.Int64 // live delta-stream sessions
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[[2]string]uint64),
		bucket:   make([]uint64, len(durationBuckets)),
	}
}

// ObserveRequest records one finished request: its path, status code, and
// wall-clock duration in seconds.
func (m *Metrics) ObserveRequest(path string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{path, strconv.Itoa(code)}]++
	for i, ub := range durationBuckets {
		if seconds <= ub {
			m.bucket[i]++
		}
	}
	m.durSum += seconds
	m.durCount++
}

func (m *Metrics) addCacheHit()  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) addCacheMiss() { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *Metrics) addCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *Metrics) addRun()       { m.mu.Lock(); m.runs++; m.mu.Unlock() }
func (m *Metrics) addRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *Metrics) addTimeout()   { m.mu.Lock(); m.timeouts++; m.mu.Unlock() }

func (m *Metrics) addStreamDelta() { m.mu.Lock(); m.streamDeltas++; m.mu.Unlock() }
func (m *Metrics) addStreamPhase() { m.mu.Lock(); m.streamPhases++; m.mu.Unlock() }
func (m *Metrics) addStreamCircuitMoves(n int64) {
	m.mu.Lock()
	m.streamCircuitMoves += uint64(n)
	m.mu.Unlock()
}
func (m *Metrics) setStreamSessions(n int64) { m.streamSessions.Store(n) }
func (m *Metrics) addFrameCandidate()        { m.mu.Lock(); m.framesCandidate++; m.mu.Unlock() }
func (m *Metrics) addFrameExact()            { m.mu.Lock(); m.framesExact++; m.mu.Unlock() }

// Snapshot is a copy of the counters for tests and introspection.
type Snapshot struct {
	Requests    map[string]uint64 // "path code" → count
	CacheHits   uint64
	CacheMisses uint64
	Coalesced   uint64
	Runs        uint64
	Rejected    uint64
	Timeouts    uint64
	DurCount    uint64

	StreamDeltas       uint64
	StreamPhases       uint64
	StreamCircuitMoves uint64
	// StreamFramesCandidate counts deltas framed by the canonical-layout
	// guess, StreamFramesExact those the brace matcher had to cut.
	StreamFramesCandidate uint64
	StreamFramesExact     uint64

	Inflight       int64
	QueueDepth     int64
	StreamSessions int64
}

// Snapshot returns a consistent copy of every counter and gauge.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Requests:    make(map[string]uint64, len(m.requests)),
		CacheHits:   m.cacheHits,
		CacheMisses: m.cacheMisses,
		Coalesced:   m.coalesced,
		Runs:        m.runs,
		Rejected:    m.rejected,
		Timeouts:    m.timeouts,
		DurCount:    m.durCount,

		StreamDeltas:       m.streamDeltas,
		StreamPhases:       m.streamPhases,
		StreamCircuitMoves: m.streamCircuitMoves,

		StreamFramesCandidate: m.framesCandidate,
		StreamFramesExact:     m.framesExact,

		Inflight:       m.inflight.Load(),
		QueueDepth:     m.queueDepth.Load(),
		StreamSessions: m.streamSessions.Load(),
	}
	for k, v := range m.requests {
		s.Requests[k[0]+" "+k[1]] = v
	}
	return s
}

// WriteTo renders the Prometheus text exposition format. Output is
// deterministic: series are sorted by label value.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP hfastd_requests_total HTTP requests served, by path and status code.")
	fmt.Fprintln(w, "# TYPE hfastd_requests_total counter")
	keys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "hfastd_requests_total{path=%q,code=%q} %d\n", k[0], k[1], m.requests[k])
	}

	fmt.Fprintln(w, "# HELP hfastd_request_duration_seconds Request latency histogram.")
	fmt.Fprintln(w, "# TYPE hfastd_request_duration_seconds histogram")
	for i, ub := range durationBuckets {
		fmt.Fprintf(w, "hfastd_request_duration_seconds_bucket{le=%q} %d\n", formatBound(ub), m.bucket[i])
	}
	fmt.Fprintf(w, "hfastd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.durCount)
	fmt.Fprintf(w, "hfastd_request_duration_seconds_sum %g\n", m.durSum)
	fmt.Fprintf(w, "hfastd_request_duration_seconds_count %d\n", m.durCount)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("hfastd_cache_hits_total", "Requests served from the plan cache.", m.cacheHits)
	counter("hfastd_cache_misses_total", "Requests that had to run the pipeline.", m.cacheMisses)
	counter("hfastd_coalesced_waiters_total", "Requests attached to an identical in-flight computation.", m.coalesced)
	counter("hfastd_pipeline_runs_total", "Profiling/provisioning pipeline executions started.", m.runs)
	counter("hfastd_rejected_total", "Requests rejected with 429 by worker-pool backpressure.", m.rejected)
	counter("hfastd_timeouts_total", "Requests that exceeded their deadline (504).", m.timeouts)
	counter("hfastd_stream_deltas_total", "Profile deltas folded across all stream sessions.", m.streamDeltas)
	counter("hfastd_stream_phases_total", "Phase boundaries detected by streaming folds (beyond phase 0).", m.streamPhases)
	counter("hfastd_stream_circuit_moves_total", "Circuits set up plus torn down by stream re-provisioning plans.", m.streamCircuitMoves)

	fmt.Fprintln(w, "# HELP hfastd_stream_frames_total Deltas cut from stream bodies: by the canonical-layout guess, or by the exact brace matcher.")
	fmt.Fprintln(w, "# TYPE hfastd_stream_frames_total counter")
	fmt.Fprintf(w, "hfastd_stream_frames_total{path=\"candidate\"} %d\n", m.framesCandidate)
	fmt.Fprintf(w, "hfastd_stream_frames_total{path=\"exact\"} %d\n", m.framesExact)

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("hfastd_inflight_requests", "Requests currently being handled.", m.inflight.Load())
	gauge("hfastd_queue_depth", "Requests waiting for a worker slot.", m.queueDepth.Load())
	gauge("hfastd_stream_sessions", "Live delta-stream sessions.", m.streamSessions.Load())
}

// formatBound renders a histogram bound the way Prometheus clients do
// ("0.001", not "1e-03"); 'f' with -1 precision never emits trailing
// zeros.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
