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
	live  bool    // in a CollectorSet: made or reused by the world that holds it
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

// Event records one communication event. The mpi runtime runs one rank's
// coroutine at a time, so neither this nor the CollectorSet takes a lock.
func (c *Collector) Event(e mpi.Event) {
	if e.Call == mpi.CallRegionBegin || e.Call == mpi.CallRegionEnd {
		c.lastT = e.T
		return
	}
	c.tab.add(e, elapsed(&c.lastT, e.T))
}

// CollectorSet builds one Collector per rank and assembles their output.
// It serves one world, whose RunContext calls Factory and every Event from
// one coroutine at a time.
type CollectorSet struct {
	capacity int
	scratch  *worldScratch // until Profile hands it on
	profile  *Profile      // what Profile assembled
}

// worldScratch is what a finished world leaves for the next: collectors by
// world rank (nil where none was made), whose emptied tables keep their
// chunks and index storage, and the assembly's sort buffers.
type worldScratch struct {
	ranks []*Collector
	sort  sortScratch
}

var scratchPool = sync.Pool{New: func() any { return new(worldScratch) }}

// NewCollectorSet creates a set with the given per-rank hash capacity
// (DefaultHashCap if capacity <= 0).
func NewCollectorSet(capacity int) *CollectorSet {
	if capacity <= 0 {
		capacity = DefaultHashCap
	}
	return &CollectorSet{capacity: capacity, scratch: scratchPool.Get().(*worldScratch)}
}

// Factory is the mpi.TracerFactory to install on the world.
func (s *CollectorSet) Factory(rank int) mpi.Tracer {
	if s.scratch == nil { // a second world on this set
		s.scratch, s.profile = scratchPool.Get().(*worldScratch), nil
	}
	sc := s.scratch
	for len(sc.ranks) <= rank {
		sc.ranks = append(sc.ranks, nil)
	}
	if sc.ranks[rank] == nil {
		sc.ranks[rank] = NewCollector(rank, s.capacity)
	}
	c := sc.ranks[rank]
	c.rank, c.lastT, c.live, c.tab.capacity = rank, 0, true, s.capacity
	return c
}

// Profile assembles the collected per-rank hashes into one block of
// entries, sub-sliced per rank, and hands the collectors on to the next
// set: call it only after World.Run has returned, and feed the set's
// tracers nothing afterwards. Calling it again returns the same profile.
func (s *CollectorSet) Profile(app string, procs int, params map[string]int) *Profile {
	if s.profile != nil {
		return s.profile
	}
	sc := s.scratch
	ranks, total := 0, 0
	for _, c := range sc.ranks {
		if c != nil && c.live {
			ranks++
			total += c.tab.n
		}
	}
	p := &Profile{App: app, Procs: procs, Params: params, Ranks: make([]RankProfile, 0, ranks)}
	block := make([]Entry, 0, total)
	for r, c := range sc.ranks {
		if c == nil || !c.live {
			continue
		}
		rp := RankProfile{Rank: c.rank, Spilled: c.tab.spilled}
		if c.tab.n > 0 { // a silent rank keeps encoding as "Entries": null
			from := len(block)
			block = c.tab.entries(block, &sc.sort)
			rp.Entries = block[from:len(block):len(block)]
		}
		p.Ranks = append(p.Ranks, rp)
		// Catch-alls past the capacity are the one unbounded thing a table
		// holds: one that overflowed is dropped rather than recycled.
		if c.tab.n > c.tab.capacity {
			sc.ranks[r] = nil
		}
		c.live = false
		c.tab.reset()
	}
	scratchPool.Put(sc)
	s.scratch, s.profile = nil, p
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
