package ipm

import (
	"bytes"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/mpi"
)

func profileRun(t *testing.T, p int, capacity int, fn func(*mpi.Comm)) *Profile {
	t.Helper()
	set := NewCollectorSet(capacity)
	w := mpi.NewWorld(p, mpi.WithTracerFactory(set.Factory))
	if err := w.Run(fn); err != nil {
		t.Fatalf("world run: %v", err)
	}
	return set.Profile("test", p, nil)
}

func TestCallCountsAggregation(t *testing.T) {
	p := profileRun(t, 2, 0, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(1, 1, mpi.Size(64))
			}
		} else {
			for i := 0; i < 3; i++ {
				c.Recv(0, 1)
			}
		}
		c.Barrier()
	})
	counts := p.CallCounts(AllRegions)
	if counts[mpi.CallSend] != 3 {
		t.Errorf("sends: got %d want 3", counts[mpi.CallSend])
	}
	if counts[mpi.CallRecv] != 3 {
		t.Errorf("recvs: got %d want 3", counts[mpi.CallRecv])
	}
	if counts[mpi.CallBarrier] != 2 {
		t.Errorf("barriers: got %d want 2", counts[mpi.CallBarrier])
	}
}

func TestHashDedup(t *testing.T) {
	// 100 identical sends must occupy one hash entry.
	p := profileRun(t, 2, 0, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 1, mpi.Size(4096))
			}
		} else {
			for i := 0; i < 100; i++ {
				c.Recv(0, 1)
			}
		}
	})
	rank0 := p.Ranks[0]
	sendEntries := 0
	for _, e := range rank0.Entries {
		if e.Key.Call == mpi.CallSend {
			sendEntries++
			if e.Stat.Count != 100 || e.Stat.TotalBytes != 100*4096 {
				t.Errorf("bad send stat %+v", e.Stat)
			}
		}
	}
	if sendEntries != 1 {
		t.Errorf("identical sends spread over %d entries", sendEntries)
	}
}

func TestRegionSeparation(t *testing.T) {
	p := profileRun(t, 2, 0, func(c *mpi.Comm) {
		c.RegionBegin("init")
		if c.Rank() == 0 {
			c.Send(1, 1, mpi.Size(1<<20))
		} else {
			c.Recv(0, 1)
		}
		c.RegionEnd()
		c.RegionBegin("steady")
		if c.Rank() == 0 {
			c.Send(1, 1, mpi.Size(128))
		} else {
			c.Recv(0, 1)
		}
		c.RegionEnd()
	})
	all := p.TotalCalls(AllRegions)
	steady := p.TotalCalls(SteadyState)
	initOnly := p.TotalCalls(Region("init"))
	if all != steady+initOnly {
		t.Errorf("region partition broken: all=%d steady=%d init=%d", all, steady, initOnly)
	}
	sizes := p.PTPSizes(SteadyState)
	for _, sc := range sizes {
		if sc.Bytes == 1<<20 {
			t.Error("init traffic leaked into steady-state histogram")
		}
	}
}

// TestRegionFilterMatch: a filter is its canonical name, the zero value
// selects what AllRegions does but has no name, a one-region filter named like a
// canonical one is still that one region, and matching allocates nothing.
func TestRegionFilterMatch(t *testing.T) {
	regions := []string{"", "init", "steady", "all", "step000", "region:step000"}
	for _, c := range []struct {
		filter RegionFilter
		name   string
		named  bool
		match  []bool // per regions
	}{
		{"", "", false, []bool{true, true, true, true, true, true}},
		{AllRegions, "all", true, []bool{true, true, true, true, true, true}},
		{SteadyState, "steady", true, []bool{true, false, true, true, true, true}},
		{Region("step000"), "region:step000", true, []bool{false, false, false, false, true, false}},
		{Region("steady"), "region:steady", true, []bool{false, false, true, false, false, false}},
		{Region(""), "region:", true, []bool{true, false, false, false, false, false}},
		{"bogus", "bogus", false, []bool{false, false, false, false, false, false}},
	} {
		if string(c.filter) != c.name || c.filter.Named() != c.named {
			t.Errorf("filter %q (Named %v), want the name %q (Named %v)", c.filter, c.filter.Named(), c.name, c.named)
		}
		for i, r := range regions {
			if got := c.filter.Match(r); got != c.match[i] {
				t.Errorf("%q.Match(%q) = %v, want %v", c.filter, r, got, c.match[i])
			}
		}
	}
	f := Region("step000")
	hits := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range regions {
			if f.Match(r) {
				hits++
			}
		}
	}); n != 0 {
		t.Errorf("Match allocates %.0f times per pass, want 0", n)
	}
}

func TestPairsDirectedTraffic(t *testing.T) {
	p := profileRun(t, 3, 0, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, mpi.Size(1000))
			c.Send(1, 1, mpi.Size(3000))
			c.Send(2, 1, mpi.Size(500))
		case 1:
			c.Recv(0, 1)
			c.Recv(0, 1)
		case 2:
			c.Recv(0, 1)
		}
	})
	pairs := p.Pairs(AllRegions)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2: %+v", len(pairs), pairs)
	}
	p01 := pairs[0]
	if p01.Src != 0 || p01.Dst != 1 || p01.Msgs != 2 || p01.Bytes != 4000 || p01.MaxMsg != 3000 {
		t.Errorf("bad pair 0->1: %+v", p01)
	}
}

func TestHashOverflowCoarsens(t *testing.T) {
	// Capacity 4 forces coarsening: all events must still be counted.
	const sends = 64
	p := profileRun(t, 2, 4, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < sends; i++ {
				c.Send(1, 1, mpi.Size(1000+i)) // all distinct sizes
			}
		} else {
			for i := 0; i < sends; i++ {
				c.Recv(0, 1)
			}
		}
	})
	counts := p.CallCounts(AllRegions)
	if counts[mpi.CallSend] != sends {
		t.Errorf("coarsening lost events: %d != %d", counts[mpi.CallSend], sends)
	}
	if len(p.Ranks[0].Entries) > 8 {
		t.Errorf("hash grew past coarsened capacity: %d entries", len(p.Ranks[0].Entries))
	}
	// Total bytes preserved exactly.
	var total int64
	for _, e := range p.Ranks[0].Entries {
		if e.Key.Call == mpi.CallSend {
			total += e.Stat.TotalBytes
		}
	}
	var want int64
	for i := 0; i < sends; i++ {
		want += int64(1000 + i)
	}
	if total != want {
		t.Errorf("coarsening lost bytes: %d != %d", total, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := profileRun(t, 2, 0, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, mpi.Size(2048))
		} else {
			c.Recv(0, 1)
		}
	})
	p.Params = map[string]int{"steps": 5}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App || got.Procs != p.Procs || got.Params["steps"] != 5 {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.TotalCalls(AllRegions) != p.TotalCalls(AllRegions) {
		t.Error("entry counts lost in round trip")
	}
	if len(got.Pairs(AllRegions)) != len(p.Pairs(AllRegions)) {
		t.Error("pairs lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestPow2Bucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := pow2Bucket(in); got != want {
			t.Errorf("pow2Bucket(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPow2BucketEdges(t *testing.T) {
	// Negative sizes collapse to the zero bucket alongside 0.
	for _, n := range []int{-1, -1 << 40, math.MinInt} {
		if got := pow2Bucket(n); got != 0 {
			t.Errorf("pow2Bucket(%d) = %d, want 0", n, got)
		}
	}
	// Exact powers of two are their own bucket.
	for s := 0; s < 62; s += 7 {
		if got := pow2Bucket(1 << s); got != 1<<s {
			t.Errorf("pow2Bucket(1<<%d) = %d, want %d", s, got, 1<<s)
		}
	}
	if bits.UintSize != 64 {
		t.Skip("saturation cases assume 64-bit int")
	}
	// The largest representable power of two is still exact...
	if got := pow2Bucket(1 << 62); got != 1<<62 {
		t.Errorf("pow2Bucket(1<<62) = %d, want 1<<62", got)
	}
	// ...and anything past it saturates to MaxInt instead of overflowing.
	// (The previous shift-loop implementation hung here: 1<<62 << 1 wraps
	// negative and the loop never terminates.)
	for _, n := range []int{1<<62 + 1, math.MaxInt - 1, math.MaxInt} {
		if got := pow2Bucket(n); got != math.MaxInt {
			t.Errorf("pow2Bucket(%d) = %d, want MaxInt", n, got)
		}
	}
}

// TestHashPressureSpillsToCatchAll drives a tiny hash through both
// overflow stages — power-of-two coarsening, then the per-call
// catch-all — and checks the bookkeeping IPM's fixed-footprint argument
// rests on: Spilled counts every folded event, no byte is lost, and the
// table never grows past cap plus one catch-all per (call, region).
func TestHashPressureSpillsToCatchAll(t *testing.T) {
	const hashCap = 2
	sizes := make([]int, 20)
	var wantBytes int64
	for i := range sizes {
		sizes[i] = 1 << i // exact powers: coarsening cannot merge them
		wantBytes += int64(sizes[i])
	}
	p := profileRun(t, 2, hashCap, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for _, s := range sizes {
				c.Send(1, 1, mpi.Size(s))
			}
		} else {
			for range sizes {
				c.Recv(0, 1)
			}
		}
	})
	rank0 := p.Ranks[0]
	// The first cap sizes occupy the table; every later send has a fresh
	// power-of-two signature, so coarsening misses and it spills.
	if want := int64(len(sizes) - hashCap); rank0.Spilled != want {
		t.Errorf("rank 0 spilled %d events, want %d", rank0.Spilled, want)
	}
	if len(rank0.Entries) > hashCap+1 {
		t.Errorf("hash grew to %d entries, want <= hashCap+1 = %d", len(rank0.Entries), hashCap+1)
	}
	var gotBytes int64
	var catchAll *Entry
	for i, e := range rank0.Entries {
		if e.Key.Call != mpi.CallSend {
			continue
		}
		gotBytes += e.Stat.TotalBytes
		if e.Key.Bytes == -1 {
			catchAll = &rank0.Entries[i]
		}
	}
	if gotBytes != wantBytes {
		t.Errorf("TotalBytes not conserved under pressure: got %d want %d", gotBytes, wantBytes)
	}
	if catchAll == nil {
		t.Fatal("no catch-all entry despite spills")
	}
	if catchAll.Key.Peer != mpi.NoPeer {
		t.Errorf("catch-all keeps a peer: %+v", catchAll.Key)
	}
	if catchAll.Stat.Count != int64(len(sizes)-hashCap) {
		t.Errorf("catch-all count %d, want %d", catchAll.Stat.Count, len(sizes)-hashCap)
	}
	if catchAll.Stat.MaxBytes != sizes[len(sizes)-1] {
		t.Errorf("catch-all MaxBytes %d, want %d", catchAll.Stat.MaxBytes, sizes[len(sizes)-1])
	}
}

// TestHashPressureCoarsenMergesBuckets checks the intermediate stage:
// once the table is full, sizes whose power-of-two bucket already exists
// as an entry merge there (tracking MaxBytes) instead of spilling to the
// catch-all.
func TestHashPressureCoarsenMergesBuckets(t *testing.T) {
	c := NewCollector(0, 1)
	// Pre-cap insert at a bucket-aligned size seeds the 128-byte entry.
	c.Event(mpi.Event{Call: mpi.CallSend, Bytes: 128, Peer: 1})
	for _, b := range []int{100, 90, 65} { // all bucket to 128
		c.Event(mpi.Event{Call: mpi.CallSend, Bytes: b, Peer: 1})
	}
	if c.tab.spilled != 0 {
		t.Errorf("coarsening alone spilled %d events", c.tab.spilled)
	}
	// White-box: the bucket is one slot, reachable through the index.
	st := c.tab.find(sigKey{call: mpi.CallSend, bytes: 128, peer: 1})
	if st == nil {
		t.Fatalf("no coarsened 128-byte bucket: %+v", c.tab.sorted())
	}
	if st.Count != 4 || st.TotalBytes != 128+100+90+65 || st.MaxBytes != 128 {
		t.Errorf("bad coarsened stat %+v", st)
	}
	if c.tab.n != 1 {
		t.Errorf("table grew past capacity: %+v", c.tab.sorted())
	}
	// The memo still points at the exact 128-byte signature: an exact hit
	// after coarse folds must land in the same slot without touching
	// MaxBytes, and a larger size in the same bucket must raise it.
	c.Event(mpi.Event{Call: mpi.CallSend, Bytes: 128, Peer: 1})
	c.Event(mpi.Event{Call: mpi.CallSend, Bytes: 127, Peer: 1})
	if st.Count != 6 || st.MaxBytes != 128 || c.tab.n != 1 {
		t.Errorf("after exact+coarse hits: %+v, %d slots", st, c.tab.n)
	}
}

func TestPow2BucketQuick(t *testing.T) {
	f := func(n uint16) bool {
		b := pow2Bucket(int(n))
		if n == 0 {
			return b == 0
		}
		// b is a power of two, >= n, and b/2 < n.
		return b&(b-1) == 0 && b >= int(n) && (b == 1 || b/2 < int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeHistogramSorted(t *testing.T) {
	p := profileRun(t, 2, 0, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for _, s := range []int{900, 100, 500, 100} {
				c.Send(1, 1, mpi.Size(s))
			}
		} else {
			for i := 0; i < 4; i++ {
				c.Recv(0, 1)
			}
		}
	})
	hist := p.PTPSizes(AllRegions)
	for i := 1; i < len(hist); i++ {
		if hist[i].Bytes <= hist[i-1].Bytes {
			t.Fatalf("histogram not sorted: %+v", hist)
		}
	}
	if hist[0].Bytes != 100 || hist[0].Count != 2 {
		t.Errorf("bad first bucket %+v", hist[0])
	}
}

func TestCollectiveSizes(t *testing.T) {
	p := profileRun(t, 4, 0, func(c *mpi.Comm) {
		c.Allreduce(mpi.Size(16))
		b := mpi.Buf{}
		if c.Rank() == 0 {
			b = mpi.Size(24)
		}
		c.Bcast(0, &b)
	})
	hist := p.CollectiveSizes(AllRegions)
	bySize := map[int]int64{}
	for _, sc := range hist {
		bySize[sc.Bytes] = sc.Count
	}
	if bySize[16] != 4 {
		t.Errorf("allreduce sizes: %+v", hist)
	}
	if bySize[24] != 4 {
		t.Errorf("bcast sizes: %+v", hist)
	}
}

func TestCommTimeAttribution(t *testing.T) {
	set := NewCollectorSet(0)
	w := mpi.NewWorld(2,
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(set.Factory))
	err := w.Run(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, mpi.Size(1<<20))
		} else {
			c.Recv(0, 1)
		}
		c.Allreduce(mpi.Size(8))
	})
	if err != nil {
		t.Fatal(err)
	}
	p := set.Profile("timed", 2, nil)
	total := p.CommTime(AllRegions)
	if total <= 0 {
		t.Fatal("no communication time attributed")
	}
	byCall := make(map[mpi.Call]float64)
	p.Visit(AllRegions, func(_ int, e Entry) { byCall[e.Key.Call] += e.Stat.Time })
	// The 1MB transfer dominates: the receive (which blocks for it) and
	// the send (occupancy) should each exceed the allreduce time.
	m := mpi.DefaultCostModel()
	transfer := float64(1<<20) / m.Bandwidth
	if byCall[mpi.CallRecv] < transfer {
		t.Errorf("recv time %g below transfer %g", byCall[mpi.CallRecv], transfer)
	}
	if byCall[mpi.CallSend] < transfer {
		t.Errorf("send time %g below transfer %g", byCall[mpi.CallSend], transfer)
	}
}

// TestWaitanyChargesItsWait: a Waitany that parks until a 1 MB message
// arrives is charged that wait, as IPM charges blocking time to the call
// that observed it, and the rank's next call is not.
func TestWaitanyChargesItsWait(t *testing.T) {
	set := NewCollectorSet(0)
	w := mpi.NewWorld(2,
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(set.Factory))
	err := w.Run(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Waitany([]*mpi.Request{c.Irecv(1, 1)})
		} else {
			c.Send(0, 1, mpi.Size(1<<20))
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	byCall := make(map[mpi.Call]float64)
	for _, e := range set.Profile("waitany", 2, nil).Ranks[0].Entries {
		byCall[e.Key.Call] += e.Stat.Time
	}
	m := mpi.DefaultCostModel()
	transfer := float64(1<<20) / m.Bandwidth
	if byCall[mpi.CallWaitany] < transfer {
		t.Errorf("Waitany charged %g s, below the %g s transfer it waited for", byCall[mpi.CallWaitany], transfer)
	}
	if byCall[mpi.CallBarrier] >= transfer {
		t.Errorf("the Barrier after Waitany charged %g s, the wait's %g s transfer among them", byCall[mpi.CallBarrier], transfer)
	}
}

// TestRegionTimeStartsAtItsRegion runs three identical regions of ten
// 1 MB Sendrecvs: each must be charged the same time. Region events carry
// the rank's clock, so the first call of a region is charged from the
// boundary, not from zero (which charged it the rank's whole clock).
func TestRegionTimeStartsAtItsRegion(t *testing.T) {
	set := NewCollectorSet(0)
	w := mpi.NewWorld(2,
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(set.Factory))
	regions := []string{"step000", "step001", "step002"}
	err := w.Run(func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for _, name := range regions {
			c.RegionBegin(name)
			for i := 0; i < 10; i++ {
				c.Sendrecv(peer, 1, mpi.Size(1<<20), peer, 1)
			}
			c.RegionEnd()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p := set.Profile("regions", 2, nil)
	times := make([]float64, len(regions))
	for i, name := range regions {
		times[i] = p.CommTime(Region(name))
	}
	for i, got := range times {
		if got <= 0 || math.Abs(got-times[0]) > 1e-9*times[0] {
			t.Fatalf("regions charged %v s, want three equal positive times (region %s)", times, regions[i])
		}
	}
}

// TestProfileRanksDoNotAlias: the profile's entries are one block, and a
// rank's Entries must still be its own slice. Appending to rank r's must
// not write into rank r+1's first entry.
func TestProfileRanksDoNotAlias(t *testing.T) {
	p := profileRun(t, 4, 0, func(c *mpi.Comm) {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		c.Sendrecv(next, 1, mpi.Size(64*(c.Rank()+1)), prev, 1)
		c.Barrier()
	})
	for r := 0; r+1 < len(p.Ranks); r++ {
		es := p.Ranks[r].Entries
		if len(es) == 0 || cap(es) != len(es) {
			t.Fatalf("rank %d: %d entries with capacity %d, want a full, non-empty slice", r, len(es), cap(es))
		}
		want := p.Ranks[r+1].Entries[0]
		p.Ranks[r].Entries = append(es, Entry{Key: Key{Call: mpi.CallScan, Region: "intruder"}})
		if got := p.Ranks[r+1].Entries[0]; got != want {
			t.Fatalf("append to rank %d's entries overwrote rank %d's first: %+v, was %+v", r, r+1, got, want)
		}
	}
}

// TestProfileTwice: the first Profile call hands the collectors on, so a
// second one must return what the first assembled, not an empty profile.
func TestProfileTwice(t *testing.T) {
	set := NewCollectorSet(0)
	for r := 0; r < 2; r++ {
		set.Factory(r).Event(mpi.Event{Call: mpi.CallSend, Peer: 1 - r, Bytes: 8, T: 5})
	}
	first := set.Profile("twice", 2, nil)
	next := NewCollectorSet(0) // the next world, on the same tables
	next.Factory(0).Event(mpi.Event{Call: mpi.CallRecv, Peer: 1, T: 1})
	if got := next.Profile("next", 1, nil).Ranks[0].Entries[0].Stat.Time; got != 1 {
		t.Errorf("the next world's first event is charged %g s, want 1: the finished world's clock leaked", got)
	}
	if second := set.Profile("twice", 2, nil); second != first {
		t.Fatalf("second Profile call returned another profile: %+v", second)
	}
	if len(first.Ranks) != 2 || len(first.Ranks[0].Entries) != 1 || first.Ranks[0].Entries[0].Key.Call != mpi.CallSend {
		t.Fatalf("profile changed under the next world: %+v", first.Ranks)
	}
	if empty := NewCollectorSet(0).Profile("none", 3, nil); empty.Ranks == nil || len(empty.Ranks) != 0 {
		t.Errorf("a set no world ran on profiles as %+v, want an empty, non-nil rank list", empty.Ranks)
	}
}

// TestEntriesOrderWithForeignCalls: a Call outside the runtime's range has
// no bucket in the assembly's counting sort; such a table is ordered by
// whole-key comparison and must come out in the same wire order.
func TestEntriesOrderWithForeignCalls(t *testing.T) {
	var evs []mpi.Event
	for i, call := range []mpi.Call{mpi.CallSend, mpi.Call(mpi.NumCalls + 3), mpi.CallWaitall, mpi.Call(-2), mpi.Call(mpi.NumCalls)} {
		for _, region := range []string{"step001", "", "step000"} {
			evs = append(evs, mpi.Event{Call: call, Peer: 3 - i, Bytes: 8 * i, Region: region})
		}
	}
	checkAgainstReference(t, 0, evs)
	checkAgainstReference(t, 2, evs)
}

// refPairs is Pairs as it was, a map and a sort: the oracle for the dense
// row version on profiles no collector would produce.
func refPairs(p *Profile, filter RegionFilter) []PairTraffic {
	type pk struct{ src, dst int }
	acc := make(map[pk]*PairTraffic)
	p.Visit(filter, func(rank int, e Entry) {
		if !e.Key.Call.IsPointToPoint() || e.Key.Peer == mpi.NoPeer {
			return
		}
		pt, ok := acc[pk{rank, e.Key.Peer}]
		if !ok {
			pt = &PairTraffic{Src: rank, Dst: e.Key.Peer}
			acc[pk{rank, e.Key.Peer}] = pt
		}
		pt.Msgs += e.Stat.Count
		pt.Bytes += e.Stat.TotalBytes
		pt.MaxMsg = max(pt.MaxMsg, e.Key.Bytes, e.Stat.MaxBytes)
	})
	out := make([]PairTraffic, 0, len(acc))
	for _, pt := range acc {
		out = append(out, *pt)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Src < out[j].Src || out[i].Src == out[j].Src && out[i].Dst < out[j].Dst
	})
	return out
}

func TestPairsMatchesMapReference(t *testing.T) {
	send := func(peer, bytes int, region string, count int64) Entry {
		return Entry{Key{mpi.CallIsend, bytes, peer, region}, Stat{Count: count, TotalBytes: count * int64(bytes), MaxBytes: bytes}}
	}
	rows := []RankProfile{
		{Rank: 0, Entries: []Entry{send(3, 64, "init", 2), send(1, 8, "step000", 1), send(3, 128, "step000", 5), send(mpi.NoPeer, -1, "step000", 9),
			{Key{mpi.CallWaitall, 0, 2, "step000"}, Stat{Count: 4}}, send(0, 16, "step000", 1), send(2, 0, "step001", 0)}},
		{Rank: 1, Entries: nil},
		{Rank: 2, Entries: []Entry{send(1, 32, "step000", 3), send(0, -5, "step000", 1)}},
		{Rank: 3, Entries: []Entry{send(0, 4096, "step001", 7), {Key{mpi.CallSendrecv, 512, 2, ""}, Stat{Count: 1, TotalBytes: 512, MaxBytes: 700}}}},
	}
	foreign := append([]RankProfile{}, rows...) // peers that are no world rank
	foreign[2] = RankProfile{Rank: 2, Entries: []Entry{send(9, 8, "step000", 1), send(1, 32, "step000", 3), send(-7, 8, "step000", 2), send(9, 24, "step001", 1)}}
	shuffled := []RankProfile{rows[3], rows[0], rows[2], rows[0], rows[1]} // out of order, rank 0 twice
	for name, p := range map[string]*Profile{
		"in order":      {Procs: 4, Ranks: rows},
		"foreign peers": {Procs: 4, Ranks: foreign},
		"no Procs":      {Ranks: rows},
		"fewer Procs":   {Procs: 2, Ranks: rows},
		"shuffled":      {Procs: 4, Ranks: shuffled},
		"empty":         {Procs: 4},
	} {
		for fname, filter := range map[string]RegionFilter{"zero": "", "steady": SteadyState, "step000": Region("step000")} {
			got, want := p.Pairs(filter), refPairs(p, filter)
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, filter %s:\n got %+v\nwant %+v", name, fname, got, want)
			}
		}
	}
}
