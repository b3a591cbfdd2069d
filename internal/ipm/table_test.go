package ipm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// refCollector is the map-based collector the signature table replaced,
// kept verbatim as the oracle: map[Key]*Stat, string regions, the
// last-signature memo, power-of-two coarsening and the per-call catch-all
// exactly as Collector.Event implemented them.
type refCollector struct {
	cap     int
	entries map[Key]*Stat
	spilled int64
	lastT   float64

	lastKey  Key
	lastStat *Stat
}

func newRefCollector(capacity int) *refCollector {
	if capacity <= 0 {
		capacity = DefaultHashCap
	}
	return &refCollector{cap: capacity, entries: make(map[Key]*Stat)}
}

func (c *refCollector) Event(e mpi.Event) {
	if e.Call == mpi.CallRegionBegin || e.Call == mpi.CallRegionEnd {
		c.lastT = e.T
		return
	}
	var dt float64
	if e.T > c.lastT {
		dt = e.T - c.lastT
		c.lastT = e.T
	}
	key := Key{Call: e.Call, Bytes: e.Bytes, Peer: e.Peer, Region: e.Region}
	if c.lastStat != nil && key == c.lastKey {
		c.lastStat.Count++
		c.lastStat.TotalBytes += int64(e.Bytes)
		c.lastStat.Time += dt
		return
	}
	if st, ok := c.entries[key]; ok {
		c.lastKey, c.lastStat = key, st
		st.Count++
		st.TotalBytes += int64(e.Bytes)
		st.Time += dt
		return
	}
	exact := true
	if len(c.entries) >= c.cap {
		exact = false
		key.Bytes = pow2Bucket(e.Bytes)
		if st, ok := c.entries[key]; ok {
			st.Count++
			st.TotalBytes += int64(e.Bytes)
			st.Time += dt
			if e.Bytes > st.MaxBytes {
				st.MaxBytes = e.Bytes
			}
			return
		}
		key = Key{Call: e.Call, Bytes: -1, Peer: mpi.NoPeer, Region: key.Region}
		c.spilled++
		if st, ok := c.entries[key]; ok {
			st.Count++
			st.TotalBytes += int64(e.Bytes)
			st.Time += dt
			if e.Bytes > st.MaxBytes {
				st.MaxBytes = e.Bytes
			}
			return
		}
	}
	st := &Stat{Count: 1, TotalBytes: int64(e.Bytes), MaxBytes: e.Bytes, Time: dt}
	c.entries[key] = st
	if exact {
		c.lastKey, c.lastStat = key, st
	}
}

func (c *refCollector) sorted() []Entry {
	es := make([]Entry, 0, len(c.entries))
	for k, st := range c.entries {
		es = append(es, Entry{Key: k, Stat: *st})
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i].Key, es[j].Key
		if a.Call != b.Call {
			return a.Call < b.Call
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Bytes < b.Bytes
	})
	return es
}

// sorted is entries for a test: its own block, its own scratch.
func (t *sigTable) sorted() []Entry {
	return t.entries(make([]Entry, 0, t.n), new(sortScratch))
}

// eventsFromBytes decodes a hostile event stream: a capacity in [1,16]
// followed by four bytes per event. The alphabet is built to collide:
// few calls, few peers including NoPeer, a handful of regions that repeat
// (with marker events between them), and sizes that straddle the
// power-of-two buckets 64 and 128 — plus -1, the catch-all's own size, and
// sizes whose bucket saturates.
func eventsFromBytes(data []byte) (capacity int, evs []mpi.Event) {
	if len(data) == 0 {
		return 1, nil
	}
	capacity = 1 + int(data[0])%16
	regions := []string{"", "init", "step000", "step001", "step002"}
	sizes := []int{0, 1, 63, 64, 65, 100, 127, 128, 129, 1000, 1024, -1, math.MaxInt/2 + 1, math.MaxInt - 1}
	calls := []mpi.Call{mpi.CallSend, mpi.CallIsend, mpi.CallWaitall, mpi.CallAllreduce}
	t := 0.0
	for d := data[1:]; len(d) >= 4; d = d[4:] {
		region := regions[int(d[2])%len(regions)]
		if d[3]%16 == 0 {
			evs = append(evs, mpi.Event{Call: mpi.CallRegionBegin + mpi.Call(d[3]>>4&1), Peer: mpi.NoPeer, Region: region, T: t})
			continue
		}
		t += float64(d[3]%4) * 1e-6 // zero steps exercise the dt == 0 path
		evs = append(evs, mpi.Event{
			Call:   calls[int(d[0])%len(calls)],
			Peer:   int(d[1])%5 - 1, // -1 is NoPeer
			Bytes:  sizes[int(d[0]>>2)%len(sizes)],
			Region: region,
			T:      t,
		})
	}
	return capacity, evs
}

// checkAgainstReference drives one stream through the table-backed
// Collector and the map-backed reference and requires identical sorted
// entries and spill counts.
func checkAgainstReference(t *testing.T, capacity int, evs []mpi.Event) {
	t.Helper()
	c, ref := NewCollector(0, capacity), newRefCollector(capacity)
	for _, e := range evs {
		c.Event(e)
		ref.Event(e)
	}
	if c.tab.spilled != ref.spilled {
		t.Fatalf("cap %d, %d events: spilled %d, reference %d", capacity, len(evs), c.tab.spilled, ref.spilled)
	}
	if got, want := c.tab.sorted(), ref.sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cap %d, %d events: entries differ\n got %+v\nwant %+v", capacity, len(evs), got, want)
	}
}

func randomStreams(n int) [][]byte {
	rng := rand.New(rand.NewSource(13))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 1+4*rng.Intn(400))
		rng.Read(out[i])
	}
	return out
}

// TestSigTableMatchesMapReference is the table's oracle: random event
// streams at tiny capacities, where nearly every event coarsens or
// spills, and at the default capacity, where the index grows and the
// chunks fill, must leave exactly what the map-based collector left.
func TestSigTableMatchesMapReference(t *testing.T) {
	for _, data := range randomStreams(300) {
		capacity, evs := eventsFromBytes(data)
		checkAgainstReference(t, capacity, evs)
		checkAgainstReference(t, 0, evs)
	}
	// Many distinct signatures under the default capacity: several chunks,
	// several index doublings, every slot found again on the second pass.
	var evs []mpi.Event
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 5*chunkLen+7; i++ {
			evs = append(evs, mpi.Event{Call: mpi.CallIsend, Peer: i % 97, Bytes: 8 * i, Region: "step000", T: float64(len(evs)) * 1e-6})
		}
	}
	checkAgainstReference(t, 0, evs)
	checkAgainstReference(t, 3*chunkLen, evs)
}

// TestSigTableResetReuse checks the streaming collector's reuse of one
// table across windows: a reset table behaves as a new one, and keeps its
// storage. Every stream opens and closes on the same signature, so the
// memo left by one window names the first event of the next.
func TestSigTableResetReuse(t *testing.T) {
	streams := randomStreams(20)
	tab := newSigTable(4)
	probe := mpi.Event{Call: mpi.CallSendrecv, Peer: 2, Bytes: 96, Region: "step001"}
	for _, data := range streams {
		_, evs := eventsFromBytes(data)
		evs = append(append([]mpi.Event{probe}, evs...), probe)
		ref := newRefCollector(4)
		tab.reset()
		var lastT float64
		for _, e := range evs {
			ref.Event(e)
			if e.Call == mpi.CallRegionBegin || e.Call == mpi.CallRegionEnd {
				lastT = e.T
				continue
			}
			tab.add(e, elapsed(&lastT, e.T))
		}
		if got, want := tab.sorted(), ref.sorted(); !reflect.DeepEqual(got, want) || tab.spilled != ref.spilled {
			t.Fatalf("reused table diverged: spilled %d vs %d\n got %+v\nwant %+v", tab.spilled, ref.spilled, got, want)
		}
	}
	if len(tab.chunks) != 1 {
		t.Errorf("a 4-signature table holds %d chunks after reuse, want 1", len(tab.chunks))
	}
}

// TestSigTableRegionReentry drives through table and oracle the region
// sequences the region-local index has to rebuild itself for: a region
// entered twice, traffic outside any region between every two steps, and a
// change of region on every event. A visit repeats some signatures of the
// region's earlier visits and brings new ones, so at capacities 1 and 4
// coarsening and the catch-all fire inside a re-entered region from the
// start, and at 64 the table fills in the middle of one.
func TestSigTableRegionReentry(t *testing.T) {
	everyEvent := make([]string, 240)
	for v := range everyEvent {
		everyEvent[v] = []string{"step000", "", "step001"}[v%3]
	}
	calls := []mpi.Call{mpi.CallIsend, mpi.CallIrecv, mpi.CallWaitall}
	for _, seq := range []struct {
		name     string
		perVisit int
		visits   []string
	}{
		{"A B A", 30, []string{"step000", "step001", "step000"}},
		{"outside between", 30, []string{"", "step000", "", "step001", "", "step002", "", "step000"}},
		{"every event", 1, everyEvent},
	} {
		var evs []mpi.Event
		for v, region := range seq.visits {
			for i := 0; i < seq.perVisit; i++ {
				j := (i + 7*v) % 90 // 90 signatures, distinct in (call, peer, bytes)
				evs = append(evs, mpi.Event{Call: calls[j%3], Peer: j%7 - 1, Bytes: 60 + 9*(j%11), Region: region, T: float64(len(evs)) * 1e-6})
			}
		}
		for _, capacity := range []int{1, 4, 64} {
			t.Run(fmt.Sprintf("%s/cap%d", seq.name, capacity), func(t *testing.T) {
				checkAgainstReference(t, capacity, evs)
			})
		}
	}
}

// reentrySeeds are two such sequences in eventsFromBytes' encoding, for
// the fuzzer to mutate: capacity 4, A B A with a marker between visits, and
// capacity 2 with the region changing on every event.
func reentrySeeds() [][]byte {
	aba, every := []byte{3}, []byte{1}
	for v, region := range []byte{2, 3, 2} {
		for i := 0; i < 24; i++ {
			aba = append(aba, byte(4*(i+3*v)+i%4), byte(i%5), region, byte(1+i%3))
		}
		aba = append(aba, 0, 0, region, 16) // region_end
	}
	for i := 0; i < 90; i++ {
		every = append(every, byte(4*i+i%4), byte(i%5), byte(i%3*2), byte(1+i%3))
	}
	return [][]byte{aba, every}
}

func FuzzSigTable(f *testing.F) {
	for _, data := range append(randomStreams(16), reentrySeeds()...) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, evs := eventsFromBytes(data)
		checkAgainstReference(t, capacity, evs)
	})
}
