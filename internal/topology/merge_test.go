package topology

import (
	"reflect"
	"testing"
)

// addOracle is Add as it stood before the row merge — every edge of src,
// at both ends, through addHalf's binary search and shift — kept as the
// oracle the merge is held to.
func addOracle(g, src *Graph) *Graph {
	src.ForEachEdge(func(i, j int, e Edge) {
		if e.Msgs > 0 {
			g.addHalf(i, j, e.Msgs, e.Vol, e.MaxMsg)
			g.addHalf(j, i, e.Msgs, e.Vol, e.MaxMsg)
		}
	})
	return g
}

// traffic is one AddTraffic call.
type traffic struct {
	i, j      int
	msgs, vol int64
	max       int
}

func graphOf(p int, ts ...traffic) *Graph {
	g := MustGraph(p)
	for _, t := range ts {
		if err := g.AddTraffic(t.i, t.j, t.msgs, t.vol, t.max); err != nil {
			panic(err)
		}
	}
	return g
}

// rows copies g's adjacency, row by row.
func rows(g *Graph) [][]Edge {
	out := make([][]Edge, g.P)
	for i := range out {
		out[i] = append([]Edge(nil), g.adj[i]...)
	}
	return out
}

// TestAddMatchesAddHalfOracle: merging src's rows into g's builds, row
// for row, what the per-edge insertion built, and leaves src as it was.
func TestAddMatchesAddHalfOracle(t *testing.T) {
	type side struct {
		p       int
		traffic []traffic
	}
	cases := []struct {
		name   string
		g, src side
	}{
		{"new partner before, between and after",
			side{8, []traffic{{2, 4, 1, 10, 10}, {2, 6, 2, 20, 20}}},
			side{8, []traffic{{2, 1, 1, 5, 5}, {2, 5, 1, 7, 7}, {2, 7, 3, 9, 9}, {2, 4, 4, 40, 30}}}},
		{"every partner known: in place",
			side{6, []traffic{{0, 1, 1, 10, 10}, {1, 2, 1, 10, 10}, {2, 5, 1, 10, 10}}},
			side{6, []traffic{{1, 0, 2, 4, 4}, {5, 2, 1, 99, 99}}}},
		{"zero-message edges in src",
			side{6, []traffic{{0, 1, 1, 10, 10}}},
			side{6, []traffic{{0, 1, 0, 0, 0}, {0, 3, 0, 0, 0}, {4, 5, 0, 0, 0}, {0, 2, 1, 8, 8}}}},
		{"zero-message edges in g",
			side{6, []traffic{{1, 3, 0, 0, 0}, {0, 5, 0, 0, 0}, {1, 4, 1, 1, 1}}},
			side{6, []traffic{{1, 3, 2, 64, 32}, {1, 2, 1, 1, 1}}}},
		{"empty g", side{5, nil}, side{5, []traffic{{0, 4, 1, 1, 1}, {1, 2, 1, 2, 2}}}},
		{"empty src", side{5, []traffic{{0, 4, 1, 1, 1}}}, side{5, nil}},
		{"empty rows on both sides", side{7, []traffic{{0, 1, 1, 1, 1}}}, side{7, []traffic{{5, 6, 1, 1, 1}}}},
		{"src.P < g.P",
			side{9, []traffic{{3, 8, 1, 1, 1}, {0, 3, 1, 1, 1}}},
			side{4, []traffic{{3, 0, 2, 2, 2}, {3, 1, 1, 1, 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, src := graphOf(c.g.p, c.g.traffic...), graphOf(c.src.p, c.src.traffic...)
			want := rows(addOracle(graphOf(c.g.p, c.g.traffic...), graphOf(c.src.p, c.src.traffic...)))
			before := rows(src)
			if got := rows(g.Add(src)); !reflect.DeepEqual(got, want) {
				t.Fatalf("Add built\n %+v\nthe per-edge oracle\n %+v", got, want)
			}
			if !reflect.DeepEqual(rows(src), before) {
				t.Fatalf("Add changed src: %+v, was %+v", rows(src), before)
			}
			for i := range g.adj { // the union shares no memory with src
				for k := range g.adj[i] {
					g.adj[i][k].Vol = -1
				}
			}
			if !reflect.DeepEqual(rows(src), before) {
				t.Fatal("writing the union wrote src")
			}
		})
	}
}

// TestAddKnownPartnersAllocatesNothing: a window that brings no partner
// the union lacks — a static halo's every step — merges in place.
func TestAddKnownPartnersAllocatesNothing(t *testing.T) {
	const p = 256
	halo := func() *Graph {
		g := MustGraph(p)
		for i := 0; i < p; i++ {
			for _, off := range []int{1, 16} {
				g.AddTraffic(i, (i+off)%p, 1, 8192, 8192)
			}
		}
		return g
	}
	union, step := halo(), halo()
	if allocs := testing.AllocsPerRun(20, func() { union.Add(step) }); allocs != 0 {
		t.Fatalf("Add of known partners: %.0f allocations, want 0", allocs)
	}
}
