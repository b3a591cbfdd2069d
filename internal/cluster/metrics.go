package cluster

import (
	"io"
	"sync"

	"github.com/hfast-sim/hfast/internal/obs"
)

// Metrics counts cache-tier outcomes for one replica's peer-fill
// coordinator: a Snapshot behind a mutex. All methods are safe for
// concurrent use.
type Metrics struct {
	mu sync.Mutex
	s  Snapshot
}

func (m *Metrics) addLocalOwned() { m.mu.Lock(); m.s.LocalOwned++; m.mu.Unlock() }
func (m *Metrics) addHedged()     { m.mu.Lock(); m.s.HedgedFetches++; m.mu.Unlock() }

func (m *Metrics) addPeerHit(bytes int, seconds float64) {
	m.mu.Lock()
	m.s.PeerHits++
	m.s.FillBytes += uint64(bytes)
	m.s.FillSeconds += seconds
	m.mu.Unlock()
}

func (m *Metrics) addFillFailure(miss bool) {
	m.mu.Lock()
	if miss {
		m.s.PeerMisses++
	} else {
		m.s.PeerErrors++
	}
	m.s.FallbackBuilds++
	m.mu.Unlock()
}

// AddServed records one artifact served to a peer; called by the
// /internal/artifact handler.
func (m *Metrics) AddServed() { m.mu.Lock(); m.s.Served++; m.mu.Unlock() }

// Snapshot is a copy of the counters for tests and introspection.
type Snapshot struct {
	LocalOwned     uint64  // keys this replica owns: resolved locally, no fetch
	PeerHits       uint64  // artifacts filled from a peer
	PeerMisses     uint64  // fetches answered 404 (peer had no spec to build from)
	PeerErrors     uint64  // fetches failed: deadline, transport, bad status
	FallbackBuilds uint64  // failed fills that fell back to a local build
	HedgedFetches  uint64  // extra fetches launched by the hedge timer
	Served         uint64  // artifacts this replica served to peers
	FillBytes      uint64  // artifact bytes received from peers
	FillSeconds    float64 // wall time spent on successful fills
	Peers          int     // cluster size, set at construction
}

// Snapshot returns a consistent copy of every counter.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// WritePrometheus emits the cache-tier counters in Prometheus text
// exposition format; series share the hfastd_cluster_ prefix so they
// land beside the request and pipeline metrics on /metrics.
func (m *Metrics) WritePrometheus(w io.Writer) {
	s := m.Snapshot()
	obs.Single(w, "hfastd_cluster_local_hits_total", "Stage keys owned by this replica and resolved locally.", "counter", s.LocalOwned)
	obs.Single(w, "hfastd_cluster_peer_hits_total", "Artifacts filled from a peer replica.", "counter", s.PeerHits)
	obs.Single(w, "hfastd_cluster_peer_misses_total", "Peer fetches answered with 404 (artifact not buildable there).", "counter", s.PeerMisses)
	obs.Single(w, "hfastd_cluster_peer_errors_total", "Peer fetches that failed (deadline, transport, bad status).", "counter", s.PeerErrors)
	obs.Single(w, "hfastd_cluster_fallback_builds_total", "Failed peer fills that fell back to a local build.", "counter", s.FallbackBuilds)
	obs.Single(w, "hfastd_cluster_hedged_fetches_total", "Extra peer fetches launched by the hedge timer.", "counter", s.HedgedFetches)
	obs.Single(w, "hfastd_cluster_artifacts_served_total", "Artifacts this replica served to peers.", "counter", s.Served)
	obs.Single(w, "hfastd_cluster_fill_bytes_total", "Artifact bytes received from peers.", "counter", s.FillBytes)
	obs.Single(w, "hfastd_cluster_fill_seconds_total", "Wall time spent on successful peer fills.", "counter", s.FillSeconds)
	obs.Single(w, "hfastd_cluster_peers", "Configured cluster size including this replica.", "gauge", s.Peers)
}
