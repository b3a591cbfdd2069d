package topology

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
)

// byPair orders pair traffic as FromPairs requires: by (Src, Dst).
func byPair(a, b ipm.PairTraffic) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// FuzzFromPairs holds FromPairs to the AddTraffic loop it replaced, on
// pair lists with repeats, self pairs, one-way and two-way pairs and
// zero-message pairs. Five properties: the list in (Src, Dst) order
// builds the loop's graph; the list in any other order is an error;
// every row's capacity is clipped to its length; overwriting the list
// after the build changes nothing in the graph; and a partner inserted
// into one row leaves every other row as it was.
func FuzzFromPairs(f *testing.F) {
	f.Add(uint8(8), []byte{0, 1, 2, 200, 1, 0, 3, 10, 2, 2, 1, 9, 0, 1, 1, 255, 5, 3, 0, 7, 3, 5, 2, 1}, uint8(2), uint8(6))
	f.Add(uint8(1), []byte{0, 0, 1, 1}, uint8(0), uint8(0))
	f.Add(uint8(16), []byte{15, 0, 3, 128, 0, 15, 1, 64, 7, 8, 0, 0, 8, 7, 2, 16, 4, 4, 3, 3}, uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, size uint8, ops []byte, rank, partner uint8) {
		p := 1 + int(size%64)
		// Every four bytes are one pair: Src, Dst, 0–3 messages, and the
		// largest message in 16-byte units.
		var pairs []ipm.PairTraffic
		want := MustGraph(p)
		for k := 0; k+3 < len(ops); k += 4 {
			pt := ipm.PairTraffic{Src: int(ops[k]) % p, Dst: int(ops[k+1]) % p, Msgs: int64(ops[k+2] % 4), MaxMsg: int(ops[k+3]) << 4}
			pt.Bytes = pt.Msgs * int64(pt.MaxMsg)
			pairs = append(pairs, pt)
			if err := want.AddTraffic(pt.Src, pt.Dst, pt.Msgs, pt.Bytes, pt.MaxMsg); err != nil {
				t.Fatal(err)
			}
		}
		slices.SortStableFunc(pairs, byPair)

		if reversed := slices.Clone(pairs); len(reversed) > 1 && byPair(pairs[0], pairs[len(pairs)-1]) != 0 {
			slices.Reverse(reversed)
			if _, err := FromPairs(p, reversed); err == nil {
				t.Fatalf("FromPairs built a graph from pairs out of order: %v", reversed)
			}
		}

		g, err := FromPairs(p, pairs)
		if err != nil {
			t.Fatal(err)
		}
		built := rows(g)
		if !reflect.DeepEqual(built, rows(want)) {
			t.Fatalf("FromPairs built %+v, the AddTraffic loop %+v", built, rows(want))
		}
		for i, es := range g.adj {
			if cap(es) != len(es) {
				t.Fatalf("rank %d's row has capacity %d for %d edges", i, cap(es), len(es))
			}
		}

		for k := range pairs {
			pairs[k] = ipm.PairTraffic{Src: k % p, Dst: (k + 1) % p, Msgs: 99, Bytes: 99, MaxMsg: 99}
		}
		if got := rows(g); !reflect.DeepEqual(got, built) {
			t.Fatalf("overwriting the pairs changed the graph: %+v, was %+v", got, built)
		}

		r, q := int(rank)%p, int(partner)%p
		if r == q || g.find(r, q) != nil {
			return
		}
		g.addHalf(r, q, 1, 1, 1)
		got := rows(g)
		for i := range got {
			if i != r && !reflect.DeepEqual(got[i], built[i]) {
				t.Fatalf("inserting partner %d into rank %d's row changed rank %d's: %+v, was %+v", q, r, i, got[i], built[i])
			}
		}
	})
}

// TestFromPairsRefuses: a rank out of range and a pair out of (Src, Dst)
// order are errors, whatever else the list holds.
func TestFromPairsRefuses(t *testing.T) {
	for name, pairs := range map[string][]ipm.PairTraffic{
		"dst out of range":           {{Src: 0, Dst: 4, Msgs: 1}},
		"src negative":               {{Src: -1, Dst: 2, Msgs: 1}},
		"dst before its predecessor": {{Src: 1, Dst: 3, Msgs: 1}, {Src: 1, Dst: 2, Msgs: 1}},
		"src before its predecessor": {{Src: 2, Dst: 0, Msgs: 1}, {Src: 1, Dst: 3, Msgs: 1}},
	} {
		if _, err := FromPairs(4, pairs); err == nil {
			t.Errorf("%s: FromPairs built a graph", name)
		}
	}
}

// TestFromPairsAllocs: a build allocates the same handful of objects at
// any size: the graph, its row table, the in-edge index and one edge
// block, never an object per rank.
func TestFromPairsAllocs(t *testing.T) {
	for _, p := range []int{16, 1024} {
		pairs := make([]ipm.PairTraffic, 0, 2*p)
		for i := 0; i < p; i++ {
			for _, j := range []int{(i + p - 1) % p, (i + 1) % p} {
				pairs = append(pairs, ipm.PairTraffic{Src: i, Dst: j, Msgs: 1, Bytes: 8, MaxMsg: 8})
			}
		}
		slices.SortFunc(pairs, byPair)
		if n := testing.AllocsPerRun(10, func() { _, _ = FromPairs(p, pairs) }); n > 5 {
			t.Errorf("P=%d: FromPairs allocates %.0f objects per build, want at most 5", p, n)
		}
	}
}
