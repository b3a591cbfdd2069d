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
// order and found through an open-addressed index of slot numbers.
type sigTable struct {
	capacity int
	n        int
	chunks   [][]sigSlot
	index    []int32 // slot number + 1; 0 marks an empty cell
	spilled  int64   // events that required catch-all folding

	// names[id] is the region with that id (id 0 is ""); region/regionID
	// cache the last event's, so a name is looked up once per region change.
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
	return sigTable{capacity: capacity, names: []string{""}}
}

// reset empties the table for reuse, keeping its chunks, index storage and
// interned region names.
func (t *sigTable) reset() {
	t.n, t.spilled, t.last = 0, 0, nil
	clear(t.index)
}

func (t *sigTable) intern(region string) int32 {
	if region == "" {
		return 0
	}
	id, ok := t.ids[region]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[string]int32)
		}
		id = int32(len(t.names))
		t.names = append(t.names, region)
		t.ids[region] = id
	}
	return id
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

// insert appends a new slot for k, which must not be present.
func (t *sigTable) insert(k sigKey, st Stat) *Stat {
	if 2*(t.n+1) > len(t.index) { // keep the index at most half full
		t.index = make([]int32, max(2*len(t.index), chunkLen))
		for i := 0; i < t.n; i++ {
			t.place(t.slot(i).key, int32(i+1))
		}
	}
	if t.n>>chunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, make([]sigSlot, chunkLen))
	}
	sl := t.slot(t.n)
	*sl = sigSlot{key: k, stat: st}
	t.n++
	t.place(k, int32(t.n))
	return &sl.stat
}

// add folds one event, charged dt modeled seconds, into the table.
func (t *sigTable) add(e mpi.Event, dt float64) {
	if e.Region != t.region {
		t.region, t.regionID = e.Region, t.intern(e.Region)
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

// entries returns the table's contents sorted by key, in one exact-size
// allocation: slot numbers are sorted (4-byte swaps over pointer-free
// keys) and the 72-byte entries gathered once, in order. The comparison
// repeats Key.cmp on sigKeys on purpose: building two Keys per compare to
// share it costs 1.8x on a 1 000-signature rank.
func (t *sigTable) entries() []Entry {
	order := make([]int32, t.n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := &t.slot(int(a)).key, &t.slot(int(b)).key
		if c := cmp.Compare(ka.call, kb.call); c != 0 {
			return c
		}
		if ka.region != kb.region {
			return strings.Compare(t.names[ka.region], t.names[kb.region])
		}
		if c := cmp.Compare(ka.peer, kb.peer); c != 0 {
			return c
		}
		return cmp.Compare(ka.bytes, kb.bytes)
	})
	es := make([]Entry, t.n)
	for i, s := range order {
		sl := t.slot(int(s))
		es[i] = Entry{
			Key:  Key{Call: sl.key.call, Bytes: sl.key.bytes, Peer: sl.key.peer, Region: t.names[sl.key.region]},
			Stat: sl.stat,
		}
	}
	return es
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
