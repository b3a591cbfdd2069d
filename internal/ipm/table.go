package ipm

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// sigKey is a Key with the region name replaced by its interned id, which
// makes a table slot pointer-free: the collector's memory is never scanned
// by the garbage collector however many signatures a run opens.
type sigKey struct {
	call   mpi.Call
	bytes  int
	peer   int
	region int32
}

func (k sigKey) hash() uint32 {
	h := uint64(k.bytes)*0x9e3779b97f4a7c15 ^ uint64(k.peer)*0xbf58476d1ce4e5b9 ^
		(uint64(k.call)<<32|uint64(uint32(k.region)))*0x94d049bb133111eb
	return uint32(h ^ h>>32)
}

type sigSlot struct {
	key  sigKey
	stat Stat
}

// Slots live in fixed-size chunks that are never moved, so growth copies
// nothing and a *Stat stays valid for the table's lifetime.
const (
	chunkShift = 6
	chunkLen   = 1 << chunkShift
)

// sigTable is IPM's bounded signature hash: at most capacity exact
// signatures, then sizes coarsen to their power-of-two bucket, then
// events fold into a per-call catch-all (which may exceed capacity by one
// entry per (call, region) pair). Slots are stored inline in insertion
// order and found through an open-addressed index of slot numbers. A key
// can only match a slot of its own region, so the index holds the current
// region's slots only: a probe touches a step's cells, not the run's.
type sigTable struct {
	capacity int
	n        int
	chunks   [][]sigSlot
	index    []int32 // slot number + 1 of a current-region slot; 0 marks an empty cell
	live     int     // cells of index in use
	spilled  int64   // events that required catch-all folding

	// names[id] is the region with that id and ids its inverse (id 0 is "");
	// region/regionID are the current region, the last event's.
	names    []string
	ids      map[string]int32
	region   string
	regionID int32

	// lastKey/last memoize the slot the previous event folded into
	// (exact-signature hits only): a tight stencil loop re-hits the same
	// signature, so repeats skip the index probe.
	lastKey sigKey
	last    *Stat
}

func newSigTable(capacity int) sigTable {
	if capacity <= 0 {
		capacity = DefaultHashCap
	}
	return sigTable{capacity: capacity, names: []string{""}, ids: map[string]int32{"": 0}}
}

// reset empties the table for reuse, keeping its chunks and index storage.
// Interned region names are dropped: they belong to the run that ended.
func (t *sigTable) reset() {
	t.n, t.live, t.spilled, t.last = 0, 0, 0, nil
	clear(t.index)
	clear(t.names[1:])
	clear(t.ids)
	t.names, t.ids[""], t.region, t.regionID = t.names[:1], 0, "", 0
}

// enter makes region the current one: the index is emptied and, if the
// region was seen before (traffic outside any region between two steps),
// refilled by a scan of the slots, which a region-per-step program skips.
func (t *sigTable) enter(region string) {
	id, seen := t.ids[region]
	if !seen {
		id = int32(len(t.names))
		t.names = append(t.names, region)
		t.ids[region] = id
	}
	t.region, t.regionID, t.live = region, id, 0
	clear(t.index)
	for i := 0; seen && i < t.n; i++ {
		if k := t.slot(i).key; k.region == id {
			t.link(k, int32(i+1))
		}
	}
}

func (t *sigTable) slot(i int) *sigSlot { return &t.chunks[i>>chunkShift][i&(chunkLen-1)] }

func (t *sigTable) find(k sigKey) *Stat {
	if len(t.index) == 0 {
		return nil
	}
	mask := uint32(len(t.index) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return nil
		}
		if sl := t.slot(int(s - 1)); sl.key == k {
			return &sl.stat
		}
	}
}

// place records slot number s (already +1) under key k; the index must
// have a free cell.
func (t *sigTable) place(k sigKey, s int32) {
	mask := uint32(len(t.index) - 1)
	i := k.hash() & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = s
}

// link adds slot number s (already +1), a slot of the current region, to
// the index, doubling it first if that would leave it over half full.
func (t *sigTable) link(k sigKey, s int32) {
	if t.live++; 2*t.live > len(t.index) {
		old := t.index
		t.index = make([]int32, max(2*len(old), chunkLen))
		for _, o := range old {
			if o != 0 {
				t.place(t.slot(int(o-1)).key, o)
			}
		}
	}
	t.place(k, s)
}

// insert appends a new slot for k, which must not be present.
func (t *sigTable) insert(k sigKey, st Stat) *Stat {
	if t.n>>chunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, make([]sigSlot, chunkLen))
	}
	sl := t.slot(t.n)
	*sl = sigSlot{key: k, stat: st}
	t.n++
	t.link(k, int32(t.n))
	return &sl.stat
}

// add folds one event, charged dt modeled seconds, into the table.
func (t *sigTable) add(e mpi.Event, dt float64) {
	if e.Region != t.region {
		t.enter(e.Region)
	}
	key := sigKey{call: e.Call, bytes: e.Bytes, peer: e.Peer, region: t.regionID}
	st := t.last
	if st == nil || key != t.lastKey {
		if st = t.find(key); st != nil {
			t.lastKey, t.last = key, st
		}
	}
	if st != nil {
		st.Count++
		st.TotalBytes += int64(e.Bytes)
		st.Time += dt
		return
	}
	if t.n < t.capacity {
		t.lastKey = key
		t.last = t.insert(key, Stat{Count: 1, TotalBytes: int64(e.Bytes), MaxBytes: e.Bytes, Time: dt})
		return
	}
	// Coarsen: round the size to its power-of-two bucket. Folded entries
	// never enter the memo — their updates track MaxBytes, which the
	// exact-signature path above does not.
	key.bytes = pow2Bucket(e.Bytes)
	if st = t.find(key); st == nil {
		// Catch-all: per-call bucket with no peer. It still fits: it adds
		// at most one entry per (call, region) pair.
		key.bytes, key.peer = -1, mpi.NoPeer
		t.spilled++
		if st = t.find(key); st == nil {
			t.insert(key, Stat{Count: 1, TotalBytes: int64(e.Bytes), MaxBytes: e.Bytes, Time: dt})
			return
		}
	}
	st.Count++
	st.TotalBytes += int64(e.Bytes)
	st.Time += dt
	if e.Bytes > st.MaxBytes {
		st.MaxBytes = e.Bytes
	}
}

// sortKey is the tail of a slot's wire key, in its (call, region) bucket.
type sortKey struct {
	peer, bytes int
	slot        int32
}

// sortScratch is the working memory of entries, reused rank after rank.
type sortScratch struct {
	keys   []sortKey
	ends   []int32 // per (call, region rank) bucket: its end in keys
	byName []int32 // region ids in name order
	rank   []int32 // region id -> position in byName
}

// entries appends the table's contents to dst in wire order (call, region
// name, peer, bytes): region ids are ranked by name once, slots are
// counting-sorted on (call, region rank) — every region but "" owns a
// slot, so the bucket array is linear in the table — and only the small
// (peer, bytes) buckets are compared. Each slot is written once, into dst.
func (t *sigTable) entries(dst []Entry, sc *sortScratch) []Entry {
	regions := len(t.names)
	sc.byName, sc.rank = sc.byName[:0], slices.Grow(sc.rank[:0], regions)[:regions]
	for id := range t.names {
		sc.byName = append(sc.byName, int32(id))
	}
	slices.SortFunc(sc.byName, func(a, b int32) int { return strings.Compare(t.names[a], t.names[b]) })
	for r, id := range sc.byName {
		sc.rank[id] = int32(r)
	}
	bucket := func(k *sigKey) int { return int(k.call)*regions + int(sc.rank[k.region]) }

	ends := slices.Grow(sc.ends[:0], mpi.NumCalls*regions)[:mpi.NumCalls*regions]
	clear(ends)
	for i := 0; i < t.n; i++ {
		k := &t.slot(i).key
		if uint(k.call) >= uint(mpi.NumCalls) { // not a call the runtime emits: compare whole keys
			base := len(dst)
			for i := 0; i < t.n; i++ {
				dst = append(dst, t.entry(i))
			}
			sortEntries(dst[base:])
			return dst
		}
		ends[bucket(k)]++
	}
	sum := int32(0)
	for b, n := range ends {
		ends[b] = sum // the bucket's start, advanced to its end as it fills
		sum += n
	}
	keys := slices.Grow(sc.keys[:0], t.n)[:t.n]
	sc.keys, sc.ends = keys, ends
	for i := 0; i < t.n; i++ {
		k := &t.slot(i).key
		b := bucket(k)
		keys[ends[b]] = sortKey{peer: k.peer, bytes: k.bytes, slot: int32(i)}
		ends[b]++
	}
	lo := int32(0)
	for _, hi := range ends {
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b sortKey) int {
				return cmp.Or(cmp.Compare(a.peer, b.peer), cmp.Compare(a.bytes, b.bytes))
			})
		}
		lo = hi
	}
	for _, k := range keys {
		dst = append(dst, t.entry(int(k.slot)))
	}
	return dst
}

func (t *sigTable) entry(i int) Entry {
	sl := t.slot(i)
	return Entry{Key{sl.key.call, sl.key.bytes, sl.key.peer, t.names[sl.key.region]}, sl.stat}
}

func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return a.Key.cmp(b.Key) })
}

// pow2Bucket rounds n up to the nearest power of two (0 stays 0). Values
// whose next power of two does not fit in an int saturate to MaxInt, so
// pathological sizes cannot wedge the coarsening path.
func pow2Bucket(n int) int {
	if n <= 0 {
		return 0
	}
	s := bits.Len(uint(n - 1))
	if s >= bits.UintSize-1 {
		return math.MaxInt
	}
	return 1 << s
}
