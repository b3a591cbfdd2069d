package ipm

import (
	"sort"
	"sync"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// DeltaSink receives completed window deltas from a StreamSet, in stream
// order. It is invoked with the set's lock held: implementations must not
// call back into the StreamSet and should hand long work (e.g. an HTTP
// POST) to their own machinery.
type DeltaSink func(*Delta)

// StreamSet is the streaming counterpart of CollectorSet: it plugs into
// the mpi runtime as a tracer factory, but instead of holding the whole
// run's hash until the end, each rank seals its per-region hash when the
// region ends, and the set emits a Delta for a window as soon as every
// rank has sealed it.
//
// Emission order is deterministic and equals program order: seal calls
// are serialized under one lock, each rank seals its regions in program
// order, and a window completes only when its last rank seals it — which
// happens after that rank sealed every earlier region, by which time
// those windows were already complete. For the region-per-timestep
// skeletons, program order is CompareRegions order, so a live
// stream is entry-for-entry identical to SplitDeltas of the batch
// profile (modulo spill attribution, which a live stream reports in the
// window where it happened).
//
// The hash capacity bounds each *window's* table: a region that overflows
// coarsens and spills exactly like the batch Collector, and the spill
// count rides the window's delta.
type StreamSet struct {
	mu         sync.Mutex
	app        string
	procs      int
	capacity   int
	params     map[string]int
	sink       DeltaSink
	seq        int
	order      []string
	windows    map[string]*windowAcc
	collectors []*streamCollector
	sort       sortScratch
}

// windowAcc accumulates one window's sealed rank hashes until all ranks
// have reported.
type windowAcc struct {
	ranks   map[int][]Entry
	spilled map[int]int64
	emitted bool
}

// NewStreamSet creates a streaming collector set for a run of app over
// procs ranks (capacity <= 0 means DefaultHashCap per window). Completed
// window deltas are handed to sink.
func NewStreamSet(app string, procs int, params map[string]int, capacity int, sink DeltaSink) *StreamSet {
	return &StreamSet{
		app:      app,
		procs:    procs,
		capacity: capacity,
		params:   params,
		sink:     sink,
		windows:  make(map[string]*windowAcc),
	}
}

// Factory is the mpi.TracerFactory to install on the world.
func (s *StreamSet) Factory(rank int) mpi.Tracer {
	c := &streamCollector{set: s, rank: rank, cur: newSigTable(s.capacity), outside: newSigTable(s.capacity)}
	s.mu.Lock()
	s.collectors = append(s.collectors, c)
	s.mu.Unlock()
	return c
}

// Finish flushes what a normal run leaves behind: traffic outside any
// region (sealed into a final "" window) and windows some rank never
// sealed (emitted with the ranks that did). Call it only after World.Run
// has returned; it returns the number of deltas emitted over the whole
// stream.
func (s *StreamSet) Finish() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.collectors {
		if c.outside.n > 0 {
			s.sealLocked(c.rank, "", &c.outside)
			c.outside.reset()
		}
	}
	for _, w := range s.order {
		if wa := s.windows[w]; !wa.emitted {
			s.emitLocked(w, wa)
		}
	}
	return s.seq
}

// seal records one rank's finished window hash and emits the window when
// it is the last rank to report.
func (s *StreamSet) seal(rank int, window string, tab *sigTable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked(rank, window, tab)
}

func (s *StreamSet) sealLocked(rank int, window string, tab *sigTable) {
	es, spilled := tab.entries(make([]Entry, 0, tab.n), &s.sort), tab.spilled
	wa, ok := s.windows[window]
	if !ok {
		wa = &windowAcc{ranks: make(map[int][]Entry), spilled: make(map[int]int64)}
		s.windows[window] = wa
		s.order = append(s.order, window)
	}
	if wa.emitted {
		return // late seal of an already-shipped window: nothing to attach it to
	}
	if prev, dup := wa.ranks[rank]; dup {
		es = mergeEntries(append(es, prev...)) // re-entered region: fold both visits
		sortEntries(es)
	}
	wa.ranks[rank] = es
	wa.spilled[rank] += spilled
	if len(wa.ranks) == s.procs {
		s.emitLocked(window, wa)
	}
}

func (s *StreamSet) emitLocked(window string, wa *windowAcc) {
	wa.emitted = true
	ranks := make([]int, 0, len(wa.ranks))
	for r := range wa.ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	d := &Delta{
		Version: SchemaVersion,
		App:     s.app,
		Procs:   s.procs,
		Params:  s.params,
		Seq:     s.seq,
		Window:  window,
		Ranks:   make([]RankProfile, 0, len(ranks)),
	}
	for _, r := range ranks {
		d.Ranks = append(d.Ranks, RankProfile{Rank: r, Entries: wa.ranks[r], Spilled: wa.spilled[r]})
	}
	s.seq++
	if s.sink != nil {
		s.sink(d)
	}
}

// mergeEntries collapses duplicate keys in an unsorted entry slice.
func mergeEntries(es []Entry) []Entry {
	m := make(map[Key]Stat, len(es))
	for _, e := range es {
		st := m[e.Key]
		st.Count += e.Stat.Count
		st.TotalBytes += e.Stat.TotalBytes
		if e.Stat.MaxBytes > st.MaxBytes {
			st.MaxBytes = e.Stat.MaxBytes
		}
		st.Time += e.Stat.Time
		m[e.Key] = st
	}
	out := es[:0]
	for k, st := range m {
		out = append(out, Entry{Key: k, Stat: st})
	}
	return out
}

// streamCollector is the per-rank tracer: the batch Collector's signature
// table applied per region and sealed to the StreamSet at every region end.
type streamCollector struct {
	set   *StreamSet
	rank  int
	lastT float64

	region  string
	cur     sigTable // the open region's window
	outside sigTable // traffic outside any region, sealed by Finish
}

// Event implements mpi.Tracer.
func (c *streamCollector) Event(e mpi.Event) {
	switch e.Call {
	case mpi.CallRegionBegin:
		c.lastT = e.T
		c.region = e.Region
		c.cur.reset()
		return
	case mpi.CallRegionEnd:
		c.lastT = e.T
		if c.region != "" {
			c.set.seal(c.rank, c.region, &c.cur)
		}
		c.region = ""
		c.cur.reset()
		return
	}
	dt := elapsed(&c.lastT, e.T)
	if c.region != "" {
		c.cur.add(e, dt)
	} else {
		c.outside.add(e, dt)
	}
}
