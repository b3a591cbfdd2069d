package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzFabric builds a small random FCN-style fabric from rng: every node
// gets an up and a down link, plus a few shared "spine" links; a pair's
// path is up(src) → one spine (picked deterministically per pair) → down
// (dst). Bandwidths stay within [1 MB/s, 1 GB/s] so the shared
// completion epsilon (1e-3 B) never shifts a finish by more than ~1e-9 s.
func fuzzFabric(rng *rand.Rand, nodes int) (*Network, Router) {
	net := NewNetwork()
	up := make([]int, nodes)
	down := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		bw := 1e6 * math.Pow(10, 3*rng.Float64())
		up[i] = net.AddLink(bw)
		down[i] = net.AddLink(1e6 * math.Pow(10, 3*rng.Float64()))
	}
	spines := 1 + rng.Intn(3)
	spine := make([]int, spines)
	for s := range spine {
		spine[s] = net.AddLink(1e6 * math.Pow(10, 3*rng.Float64()))
	}
	latency := rng.Float64() * 1e-6
	return net, RouterFunc(func(src, dst int) ([]int, float64, bool) {
		if src == dst || src < 0 || dst < 0 || src >= nodes || dst >= nodes {
			return nil, 0, false
		}
		return []int{up[src], spine[(src*31+dst*7)%spines], down[dst]}, latency, true
	})
}

// fuzzFlows draws random traffic: random endpoints, sizes up to 1 MB,
// staggered starts, and a deliberate fraction of exact duplicates so
// equal shares and simultaneous completions get exercised.
func fuzzFlows(rng *rand.Rand, nodes, n int) []Flow {
	flows := make([]Flow, 0, n)
	for len(flows) < n {
		if len(flows) > 0 && rng.Intn(4) == 0 {
			flows = append(flows, flows[rng.Intn(len(flows))])
			continue
		}
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		f := Flow{Src: src, Dst: dst, Bytes: int64(rng.Intn(1 << 20))}
		if rng.Intn(3) == 0 {
			f.Start = float64(rng.Intn(8)) * 1e-4
		}
		flows = append(flows, f)
	}
	return flows
}

// FuzzSimulate cross-checks the incremental engine against the reference
// whole-network solver on random fabrics and random traffic: identical
// routability and byte accounting, finishes within 1e-6 relative, and no
// stall or event-cap errors on routable traffic.
func FuzzSimulate(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12))
	f.Add(int64(2), uint8(2), uint8(3))
	f.Add(int64(3), uint8(9), uint8(40))
	f.Add(int64(4), uint8(6), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, flowsRaw uint8) {
		nodes := 2 + int(nodesRaw)%10
		n := 1 + int(flowsRaw)%48
		rng := rand.New(rand.NewSource(seed))
		net, router := fuzzFabric(rng, nodes)
		flows := fuzzFlows(rng, nodes, n)

		got, err := Simulate(net, router, flows)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		want, err := simulateReference(net, router, flows)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if got.Unroutable != want.Unroutable || got.MaxLinkBytes != want.MaxLinkBytes {
			t.Fatalf("accounting: engine %+v vs reference %+v", got, want)
		}
		tol := func(a float64) float64 {
			if a < 0 {
				a = -a
			}
			if a < 1 {
				a = 1
			}
			return 1e-6 * a
		}
		if d := math.Abs(got.Makespan - want.Makespan); d > tol(want.Makespan) {
			t.Errorf("makespan %.12g vs %.12g (Δ %.3g)", got.Makespan, want.Makespan, d)
		}
		for i := range got.Flows {
			g, w := got.Flows[i], want.Flows[i]
			if g.Routed != w.Routed {
				t.Fatalf("flow %d routed %v vs %v", i, g.Routed, w.Routed)
			}
			if d := math.Abs(g.Finish - w.Finish); d > tol(w.Finish) {
				t.Errorf("flow %d finish %.12g vs %.12g (Δ %.3g)", i, g.Finish, w.Finish, d)
			}
		}

		// The region-sharded solve under a random cut — most flows crossing
		// a boundary — must agree with the reference too. The threshold drops
		// so these tiny solves actually take the sharded path.
		forceSharded(t)
		regions := make([]int32, net.Links())
		nr := 2 + rng.Intn(5)
		for i := range regions {
			if rng.Intn(8) == 0 {
				regions[i] = -1
			} else {
				regions[i] = int32(rng.Intn(nr))
			}
		}
		var sharded Result
		if err := simulateRegions(&sharded, net, router, flows, regions); err != nil {
			t.Fatalf("sharded engine: %v", err)
		}
		if sharded.Unroutable != want.Unroutable || sharded.MaxLinkBytes != want.MaxLinkBytes {
			t.Fatalf("sharded accounting: %+v vs reference %+v", sharded, want)
		}
		for i := range sharded.Flows {
			g, w := sharded.Flows[i], want.Flows[i]
			if g.Routed != w.Routed {
				t.Fatalf("sharded flow %d routed %v vs %v", i, g.Routed, w.Routed)
			}
			if d := math.Abs(g.Finish - w.Finish); d > tol(w.Finish) {
				t.Errorf("sharded flow %d finish %.12g vs %.12g (Δ %.3g)", i, g.Finish, w.Finish, d)
			}
		}
	})
}
