package pipeline

import (
	"io"
	"maps"
	"slices"
	"sync"

	"github.com/hfast-sim/hfast/internal/obs"
)

// StageStats is a point-in-time snapshot of one stage's counters.
type StageStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	// Builds counts completed stage computations; Errors the failed
	// subset; BuildSeconds their cumulative wall time.
	Builds       uint64
	Errors       uint64
	BuildSeconds float64
}

// Metrics aggregates per-stage cache and latency counters. All methods
// are safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex
	stages map[string]*StageStats
}

func newMetrics() *Metrics {
	return &Metrics{stages: make(map[string]*StageStats)}
}

func (m *Metrics) stat(stage string) *StageStats {
	s, ok := m.stages[stage]
	if !ok {
		s = &StageStats{}
		m.stages[stage] = s
	}
	return s
}

func (m *Metrics) hit(stage string) {
	m.mu.Lock()
	m.stat(stage).Hits++
	m.mu.Unlock()
}

func (m *Metrics) miss(stage string) {
	m.mu.Lock()
	m.stat(stage).Misses++
	m.mu.Unlock()
}

func (m *Metrics) coalesced(stage string) {
	m.mu.Lock()
	m.stat(stage).Coalesced++
	m.mu.Unlock()
}

func (m *Metrics) build(stage string, seconds float64, err error) {
	m.mu.Lock()
	s := m.stat(stage)
	s.Builds++
	s.BuildSeconds += seconds
	if err != nil {
		s.Errors++
	}
	m.mu.Unlock()
}

// Stage returns a snapshot of one stage's counters (zero if the stage has
// never resolved).
func (m *Metrics) Stage(stage string) StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.stages[stage]; ok {
		return *s
	}
	return StageStats{}
}

// Snapshot returns all stages' counters keyed by stage name.
func (m *Metrics) Snapshot() map[string]StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]StageStats, len(m.stages))
	for name, s := range m.stages {
		out[name] = *s
	}
	return out
}

// WritePrometheus emits the per-stage counters in Prometheus text
// exposition format, with deterministic (sorted) series order so the
// output is testable. Series share the hfast_pipeline_ prefix so they
// land beside the hfastd_ request metrics on the same /metrics page.
func (m *Metrics) WritePrometheus(w io.Writer) {
	snap := m.Snapshot()
	stages := slices.Sorted(maps.Keys(snap))
	emit := func(metric, help string, value func(StageStats) any) {
		obs.Header(w, metric, help, "counter")
		for _, name := range stages {
			obs.Sample(w, metric, value(snap[name]), "stage", name)
		}
	}
	emit("hfast_pipeline_stage_hits_total", "Artifact-cache hits per pipeline stage.", func(s StageStats) any { return s.Hits })
	emit("hfast_pipeline_stage_misses_total", "Artifact-cache misses per pipeline stage.", func(s StageStats) any { return s.Misses })
	emit("hfast_pipeline_stage_coalesced_total", "Requests coalesced onto an in-flight stage computation.", func(s StageStats) any { return s.Coalesced })
	emit("hfast_pipeline_stage_errors_total", "Failed stage computations.", func(s StageStats) any { return s.Errors })
	emit("hfast_pipeline_stage_build_seconds_total", "Cumulative wall time spent building stage artifacts.", func(s StageStats) any { return s.BuildSeconds })
	emit("hfast_pipeline_stage_builds_total", "Completed stage computations (including failures).", func(s StageStats) any { return s.Builds })
}
