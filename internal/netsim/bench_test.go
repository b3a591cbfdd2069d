package netsim

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/topology"
)

// haloTraffic builds a 3-D nearest-neighbor exchange (the cactus/LBMHD
// ghost-zone pattern, §4 of the paper) on a near-cube lattice: every rank
// sends one flow to each of its ≤6 lattice neighbors. Sizes carry a
// deterministic per-pair jitter so completions spread into thousands of
// distinct events instead of one synchronized wave — the event-heavy
// regime the incremental engine is built for.
func haloTraffic(tb testing.TB, procs int) (*topology.Graph, []Flow) {
	tb.Helper()
	m, err := meshtorus.New(meshtorus.NearCube(procs, 3), true)
	if err != nil {
		tb.Fatal(err)
	}
	g := topology.MustGraph(procs)
	var flows []Flow
	for r := 0; r < procs; r++ {
		for _, nb := range m.Neighbors(r) {
			bytes := int64(64<<10 + ((r*131 + nb*17) % 977 * 64))
			g.AddTraffic(r, nb, 1, bytes, int(bytes))
			flows = append(flows, Flow{Src: r, Dst: nb, Bytes: bytes})
		}
	}
	return g, flows
}

// benchFabrics builds the three contended fabric models for the halo
// pattern. The tree model is excluded: its 350 MB/s links make the halo
// run minutes of simulated time without changing the engine comparison.
func benchFabrics(tb testing.TB, g *topology.Graph, procs int) map[string]Router {
	tb.Helper()
	lp := DefaultLinkParams()
	a, err := hfast.Assign(g, 0, hfast.DefaultBlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := fattree.Design(procs, hfast.DefaultBlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	mesh, err := meshtorus.New(meshtorus.NearCube(procs, 3), true)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]Router{
		"hfast":   NewHFASTNet(a, lp),
		"fattree": NewFCNNet(procs, tree, lp),
		"mesh":    NewMeshNet(mesh, lp),
	}
}

// staggered is the ledger's `stag` start pattern (bench/netsim.go): each
// source rank's flows start (Src%16)·100 µs late, so thousands of
// components are born and merge mid-run where the synchronous replay
// percolates into one at t=0.
func staggered(flows []Flow) []Flow {
	out := append([]Flow(nil), flows...)
	for i := range out {
		out[i].Start += float64(out[i].Src%16) * 1e-4
	}
	return out
}

// benchSimulate runs sim over the halo pattern on every fabric at every
// size, in the ledger's two start modes, so the sub-benchmark names are
// the netsim_replay rows: <fabric>/P<procs>/<sync|stag>.
func benchSimulate(b *testing.B, procs []int, sim func(*Network, Router, []Flow) (Result, error)) {
	for _, procs := range procs {
		g, flows := haloTraffic(b, procs)
		routers := benchFabrics(b, g, procs)
		modes := map[string][]Flow{"sync": flows, "stag": staggered(flows)}
		for _, name := range []string{"hfast", "fattree", "mesh"} {
			router := routers[name]
			net := fabricNetwork(router)
			for _, mode := range []string{"sync", "stag"} {
				flows := modes[mode]
				b.Run(fmt.Sprintf("%s/P%d/%s", name, procs, mode), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := sim(net, router, flows); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkSimulate measures the incremental event-driven engine on halo
// traffic at the model-study (P=256) and ultra (P=1024) scales;
// HFAST_TEST_ULTRA=1 adds the partitioned-engine target scales P=4096,
// P=16384, and P=65536 (the reference solver never runs there — its
// quadratic event cost would take hours).
func BenchmarkSimulate(b *testing.B) {
	procs := []int{256, 1024}
	if os.Getenv("HFAST_TEST_ULTRA") != "" {
		procs = append(procs, 4096, 16384, 65536)
	}
	benchSimulate(b, procs, Simulate)
}

// TestSimulateUltraDeterminismAtP65536 pins the acceptance bar for the
// component scheduler at the title scale: the P=65536 halo replay, with
// starts staggered per source rank so thousands of components are born
// and merged mid-run, completes on every fabric and is bitwise identical
// across GOMAXPROCS={1,2,8}. Long (minutes), so it only runs when
// HFAST_TEST_ULTRA=1 opts in.
func TestSimulateUltraDeterminismAtP65536(t *testing.T) {
	if os.Getenv("HFAST_TEST_ULTRA") == "" {
		t.Skip("set HFAST_TEST_ULTRA=1 for the P=65536 determinism grid")
	}
	g, flows := haloTraffic(t, 65536)
	flows = staggered(flows)
	routers := benchFabrics(t, g, 65536)
	for _, name := range []string{"hfast", "fattree", "mesh"} {
		router := routers[name]
		net := fabricNetwork(router)
		run := func(workers int) Result {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			res, err := Simulate(net, router, flows)
			if err != nil {
				t.Fatalf("%s (GOMAXPROCS=%d): %v", name, workers, err)
			}
			return res
		}
		r1 := run(1)
		for _, workers := range []int{2, 8} {
			rw := run(workers)
			if r1.Makespan != rw.Makespan || r1.Unroutable != rw.Unroutable || r1.MaxLinkBytes != rw.MaxLinkBytes {
				t.Errorf("%s: header differs at GOMAXPROCS=%d", name, workers)
			}
			for i := range r1.Flows {
				if r1.Flows[i] != rw.Flows[i] {
					t.Fatalf("%s: flow %d differs at GOMAXPROCS=%d: %+v vs %+v",
						name, i, workers, r1.Flows[i], rw.Flows[i])
				}
			}
		}
	}
}

// BenchmarkSimulateReference measures the retired whole-network
// water-filling solver on the same traffic, for old-vs-new deltas.
func BenchmarkSimulateReference(b *testing.B) {
	benchSimulate(b, []int{256, 1024}, simulateReference)
}
