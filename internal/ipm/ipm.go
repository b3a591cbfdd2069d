// Package ipm reimplements the collection model of IPM (Integrated
// Performance Monitoring), the MPI profiling layer the paper uses to gather
// application communication characteristics with low overhead.
//
// Like IPM, the collector keeps a bounded hash of statistics keyed by the
// unique argument signature of each communication call — (call, buffer
// size, partner rank) — plus the enclosing code region, so initialization
// traffic can be separated from steady-state communication (the paper uses
// this to discard SuperLU's input-matrix distribution). When the hash
// reaches its capacity the collector coarsens keys by rounding buffer sizes
// to powers of two, and as a last resort folds entries into a per-call
// catch-all bucket, preserving IPM's fixed memory footprint guarantee.
//
// A CollectorSet plugs into the mpi runtime as a tracer factory; after the
// world finishes, Profile() assembles the per-rank hashes into a Profile
// that the topology and analysis packages consume.
package ipm

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// DefaultHashCap is the default number of distinct signatures retained per
// rank before key coarsening begins, mirroring IPM's fixed-size table.
const DefaultHashCap = 8192

// Key is the unique signature of a communication call, IPM's hash key.
type Key struct {
	// Call is the profiled entry point.
	Call mpi.Call
	// Bytes is the per-call buffer size in bytes.
	Bytes int
	// Peer is the partner world rank, or mpi.NoPeer.
	Peer int
	// Region is the enclosing code region name ("" outside any region).
	Region string
}

// Stat accumulates the observations for one Key.
type Stat struct {
	// Count is the number of calls with this signature.
	Count int64
	// TotalBytes is Count × buffer size (kept explicitly because key
	// coarsening can merge entries of different sizes).
	TotalBytes int64
	// MaxBytes is the largest single buffer folded into this entry.
	MaxBytes int
	// Time is the modeled seconds spent in calls with this signature
	// (zero when the runtime has no cost model). As in IPM, blocking time
	// is charged to the call that observed it.
	Time float64
}

// Collector gathers events for a single rank. It implements mpi.Tracer.
type Collector struct {
	rank  int
	tab   sigTable
	lastT float64 // previous event's virtual clock, for time attribution
}

// NewCollector creates a collector for one rank with the given hash
// capacity (DefaultHashCap if cap <= 0).
func NewCollector(rank, capacity int) *Collector {
	return &Collector{rank: rank, tab: newSigTable(capacity)}
}

// elapsed returns the modeled time since the previous event and moves
// *last up to t; as in IPM, it is charged to the call that observed it.
func elapsed(last *float64, t float64) float64 {
	if t <= *last {
		return 0
	}
	dt := t - *last
	*last = t
	return dt
}

// Event records one communication event; it is called by the mpi runtime
// from the rank's goroutine.
func (c *Collector) Event(e mpi.Event) {
	if e.Call == mpi.CallRegionBegin || e.Call == mpi.CallRegionEnd {
		c.lastT = e.T
		return
	}
	c.tab.add(e, elapsed(&c.lastT, e.T))
}

// CollectorSet builds one Collector per rank and assembles their output.
type CollectorSet struct {
	mu         sync.Mutex
	capacity   int
	collectors map[int]*Collector
}

// NewCollectorSet creates a set with the given per-rank hash capacity
// (DefaultHashCap if capacity <= 0).
func NewCollectorSet(capacity int) *CollectorSet {
	return &CollectorSet{
		capacity:   capacity,
		collectors: make(map[int]*Collector),
	}
}

// Factory is the mpi.TracerFactory to install on the world.
func (s *CollectorSet) Factory(rank int) mpi.Tracer {
	c := NewCollector(rank, s.capacity)
	s.mu.Lock()
	s.collectors[rank] = c
	s.mu.Unlock()
	return c
}

// Profile assembles the collected per-rank hashes. Call it only after
// World.Run has returned.
func (s *CollectorSet) Profile(app string, procs int, params map[string]int) *Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &Profile{
		App:    app,
		Procs:  procs,
		Params: params,
		Ranks:  make([]RankProfile, 0, len(s.collectors)),
	}
	ranks := make([]int, 0, len(s.collectors))
	for r := range s.collectors {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		c := s.collectors[r]
		rp := RankProfile{Rank: r, Spilled: c.tab.spilled}
		if c.tab.n > 0 { // a silent rank keeps encoding as "Entries": null
			rp.Entries = c.tab.entries()
		}
		p.Ranks = append(p.Ranks, rp)
	}
	return p
}

// cmp orders keys by (call, region, peer, bytes), the wire order of a
// rank's entries.
func (k Key) cmp(o Key) int {
	if c := cmp.Compare(k.Call, o.Call); c != 0 {
		return c
	}
	if c := strings.Compare(k.Region, o.Region); c != 0 {
		return c
	}
	if c := cmp.Compare(k.Peer, o.Peer); c != 0 {
		return c
	}
	return cmp.Compare(k.Bytes, o.Bytes)
}

// String renders the key in an IPM-report style.
func (k Key) String() string {
	return fmt.Sprintf("%s[%db->%d @%q]", k.Call, k.Bytes, k.Peer, k.Region)
}
