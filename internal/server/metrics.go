package server

import (
	"cmp"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hfast-sim/hfast/internal/obs"
)

// durationBuckets are the cumulative latency histogram upper bounds in
// seconds. They span sub-millisecond cache hits through multi-minute
// P=256 profiling runs.
var durationBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// Metrics is the service's observability surface, rendered in Prometheus
// text exposition format by WritePrometheus. The counters are the fields
// of a Snapshot behind one mutex. Four things are filled in only when a
// snapshot is taken: Requests, counted under a (path, code) key so that
// a request formats no status code, the inflight gauge, an atomic
// because the hot path moves it without the lock, and the queue and
// session gauges, which read the state they report.
type Metrics struct {
	mu       sync.Mutex
	s        Snapshot
	requests map[routeCode]uint64
	bucket   [len(durationBuckets)]uint64 // cumulative counts per durationBuckets entry
	durSum   float64

	inflight       atomic.Int64 // requests currently inside a handler
	queueDepth     func() int   // requests waiting for a worker slot
	streamSessions func() int   // live delta-stream sessions
}

type routeCode struct {
	path string
	code int
}

// NewMetrics creates an empty metrics set whose gauges call queueDepth
// and streamSessions.
func NewMetrics(queueDepth, streamSessions func() int) *Metrics {
	return &Metrics{requests: make(map[routeCode]uint64), queueDepth: queueDepth, streamSessions: streamSessions}
}

// ObserveRequest records one finished request: its path, status code, and
// wall-clock duration in seconds.
func (m *Metrics) ObserveRequest(path string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{path, code}]++
	for i, ub := range durationBuckets {
		if seconds <= ub {
			m.bucket[i]++
		}
	}
	m.durSum += seconds
	m.s.DurCount++
}

// add adds n to one of m.s's counters.
func (m *Metrics) add(counter *uint64, n uint64) {
	m.mu.Lock()
	*counter += n
	m.mu.Unlock()
}

func (m *Metrics) addCacheHit()  { m.add(&m.s.CacheHits, 1) }
func (m *Metrics) addCacheMiss() { m.add(&m.s.CacheMisses, 1) }
func (m *Metrics) addCoalesced() { m.add(&m.s.Coalesced, 1) }
func (m *Metrics) addRun()       { m.add(&m.s.Runs, 1) }
func (m *Metrics) addRejected()  { m.add(&m.s.Rejected, 1) }
func (m *Metrics) addTimeout()   { m.add(&m.s.Timeouts, 1) }

func (m *Metrics) addStreamDelta()               { m.add(&m.s.StreamDeltas, 1) }
func (m *Metrics) addStreamPhase()               { m.add(&m.s.StreamPhases, 1) }
func (m *Metrics) addStreamCircuitMoves(n int64) { m.add(&m.s.StreamCircuitMoves, uint64(n)) }
func (m *Metrics) addFrameCandidate()            { m.add(&m.s.StreamFramesCandidate, 1) }
func (m *Metrics) addFrameExact()                { m.add(&m.s.StreamFramesExact, 1) }

// Snapshot is a copy of the counters for tests and introspection.
type Snapshot struct {
	Requests    map[string]uint64 // "path code" → count
	CacheHits   uint64            // served straight from the plan cache
	CacheMisses uint64            // had to run the pipeline
	Coalesced   uint64            // attached to an identical in-flight request
	Runs        uint64            // pipeline executions actually started
	Rejected    uint64            // 429 backpressure responses
	Timeouts    uint64            // 504 deadline responses
	DurCount    uint64

	StreamDeltas       uint64 // profile deltas folded across all streams
	StreamPhases       uint64 // phase boundaries detected (beyond phase 0)
	StreamCircuitMoves uint64 // circuits set up + torn down by stream plans
	// StreamFramesCandidate counts deltas framed by the canonical-layout
	// guess, proved by the fold; StreamFramesExact those the brace matcher
	// had to cut.
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
	s := m.s
	s.Requests = make(map[string]uint64, len(m.requests))
	for k, v := range m.requests {
		s.Requests[k.path+" "+strconv.Itoa(k.code)] = v
	}
	s.Inflight, s.QueueDepth, s.StreamSessions = m.inflight.Load(), int64(m.queueDepth()), int64(m.streamSessions())
	return s
}

// WritePrometheus renders the Prometheus text exposition format. Output
// is deterministic: series are sorted by label value.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	s, requests, bucket, durSum := m.s, maps.Clone(m.requests), m.bucket, m.durSum
	m.mu.Unlock()

	obs.Header(w, "hfastd_requests_total", "HTTP requests served, by path and status code.", "counter")
	// Status codes have three digits, so their numeric order is the
	// order of their label values.
	for _, k := range slices.SortedFunc(maps.Keys(requests), func(a, b routeCode) int {
		return cmp.Or(strings.Compare(a.path, b.path), cmp.Compare(a.code, b.code))
	}) {
		obs.Sample(w, "hfastd_requests_total", requests[k], "path", k.path, "code", strconv.Itoa(k.code))
	}

	const dur = "hfastd_request_duration_seconds"
	obs.Header(w, dur, "Request latency histogram.", "histogram")
	for i, ub := range durationBuckets {
		// 'f' with -1 precision renders a bound the way Prometheus
		// clients do: "0.001", not "1e-03", and no trailing zeros.
		obs.Sample(w, dur+"_bucket", bucket[i], "le", strconv.FormatFloat(ub, 'f', -1, 64))
	}
	obs.Sample(w, dur+"_bucket", s.DurCount, "le", "+Inf")
	obs.Sample(w, dur+"_sum", durSum)
	obs.Sample(w, dur+"_count", s.DurCount)

	obs.Single(w, "hfastd_cache_hits_total", "Requests served from the plan cache.", "counter", s.CacheHits)
	obs.Single(w, "hfastd_cache_misses_total", "Requests that had to run the pipeline.", "counter", s.CacheMisses)
	obs.Single(w, "hfastd_coalesced_waiters_total", "Requests attached to an identical in-flight computation.", "counter", s.Coalesced)
	obs.Single(w, "hfastd_pipeline_runs_total", "Profiling/provisioning pipeline executions started.", "counter", s.Runs)
	obs.Single(w, "hfastd_rejected_total", "Requests rejected with 429 by worker-pool backpressure.", "counter", s.Rejected)
	obs.Single(w, "hfastd_timeouts_total", "Requests that exceeded their deadline (504).", "counter", s.Timeouts)
	obs.Single(w, "hfastd_stream_deltas_total", "Profile deltas folded across all stream sessions.", "counter", s.StreamDeltas)
	obs.Single(w, "hfastd_stream_phases_total", "Phase boundaries detected by streaming folds (beyond phase 0).", "counter", s.StreamPhases)
	obs.Single(w, "hfastd_stream_circuit_moves_total", "Circuits set up plus torn down by stream re-provisioning plans.", "counter", s.StreamCircuitMoves)

	obs.Header(w, "hfastd_stream_frames_total", "Deltas cut from stream bodies: by the canonical-layout guess, or by the exact brace matcher.", "counter")
	obs.Sample(w, "hfastd_stream_frames_total", s.StreamFramesCandidate, "path", "candidate")
	obs.Sample(w, "hfastd_stream_frames_total", s.StreamFramesExact, "path", "exact")

	obs.Single(w, "hfastd_inflight_requests", "Requests currently being handled.", "gauge", m.inflight.Load())
	obs.Single(w, "hfastd_queue_depth", "Requests waiting for a worker slot.", "gauge", m.queueDepth())
	obs.Single(w, "hfastd_stream_sessions", "Live delta-stream sessions.", "gauge", m.streamSessions())
}
