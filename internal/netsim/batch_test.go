package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestSimulateBatchedAdmissionParity pins the batched-admission fast
// path against the reference solver on every fabric: a fully
// synchronized replay (every flow at t=0 — the admission storm the
// batch path exists for) and a mixed scenario of same-timestamp bursts,
// where some bursts land on an idle component (batched) and some arrive
// mid-flight (general seeded recompute).
func TestSimulateBatchedAdmissionParity(t *testing.T) {
	for _, app := range []string{"cactus", "gtc"} {
		g, base := steadyTraffic(t, app, 64)
		sync := make([]Flow, len(base))
		burst := make([]Flow, len(base))
		for i, f := range base {
			f.Start = 0
			sync[i] = f
			f.Start = float64(f.Src%4) * 1e-3
			burst[i] = f
		}
		for name, router := range parityFabrics(t, g) {
			net := fabricNetwork(router)
			for label, flows := range map[string][]Flow{"sync": sync, "burst": burst} {
				want, err := simulateReference(net, router, flows)
				if err != nil {
					t.Fatalf("%s/%s/%s: reference: %v", app, name, label, err)
				}
				got, err := Simulate(net, router, flows)
				if err != nil {
					t.Fatalf("%s/%s/%s: engine: %v", app, name, label, err)
				}
				assertParity(t, fmt.Sprintf("%s/%s/%s", app, name, label), got, want)
			}
		}
	}
}

// TestBatchedAdmissionAdmitsOncePerGroup pins the fast path's trigger: a
// same-timestamp arrival group landing on an idle component runs exactly
// one batched solve, so Stats.StormBatches equals the number of such
// groups — one for a synchronized replay, one per group
// when the component drains between groups, and never for a group that
// arrives while earlier flows are still active.
func TestBatchedAdmissionAdmitsOncePerGroup(t *testing.T) {
	net := NewNetwork()
	net.AddLink(1e9)
	router := RouterFunc(func(src, dst int) ([]int, float64, bool) {
		return []int{0}, 0, true
	})
	group := func(dst []Flow, n int, start float64, bytes int64) []Flow {
		for i := 0; i < n; i++ {
			dst = append(dst, Flow{Src: len(dst), Dst: 1 << 20, Bytes: bytes, Start: start})
		}
		return dst
	}
	storms := func(flows []Flow) int {
		res, err := Simulate(net, router, flows)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.StormBatches
	}

	// Synchronized: the whole replay is one t=0 group → one batched solve.
	if got := storms(group(nil, 32, 0, 1000)); got != 1 {
		t.Errorf("synchronized replay: %d batched admissions, want 1", got)
	}
	// Three groups spaced far apart (1000 B at 1 GB/s drains in ~1 µs,
	// groups are 1 s apart): each lands on an idle component.
	spaced := group(nil, 16, 0, 1000)
	spaced = group(spaced, 16, 1, 1000)
	spaced = group(spaced, 16, 2, 1000)
	if got := storms(spaced); got != 3 {
		t.Errorf("spaced groups: %d batched admissions, want 3", got)
	}
	// The second group arrives while the first (1 GB ≈ 1 s) is still
	// draining: only the t=0 storm batches, the rest go through the
	// general seeded recompute.
	overlap := group(nil, 16, 0, 1<<30)
	overlap = group(overlap, 16, 1e-3, 1000)
	if got := storms(overlap); got != 1 {
		t.Errorf("overlapping groups: %d batched admissions, want 1", got)
	}
}

// TestSimulateIntraComponentDeterminism pins what one component timeline
// does — the batched-admission solve and the seeded cascade with its
// bottleneck-witness scan, both over sharded fills — bitwise identical
// (results and Stats) at GOMAXPROCS={1,2,8} and reference-exact. Two
// same-timestamp waves make both run: wave 0 is a per-component t=0
// storm, wave 1 lands mid-flight and recomputes through the witness
// machinery.
func TestSimulateIntraComponentDeterminism(t *testing.T) {
	forceSharded(t)
	g, base := steadyTraffic(t, "cactus", 64)
	flows := make([]Flow, len(base))
	for i, f := range base {
		f.Start = float64(f.Src%2) * 1e-4
		flows[i] = f
	}
	for name, router := range parityFabrics(t, g) {
		net := fabricNetwork(router)
		var regions []int32
		if rh, ok := router.(RegionHinter); ok {
			regions = rh.LinkRegions(8)
		} else {
			regions = randomCut(rand.New(rand.NewSource(11)), net.Links(), 8)
		}
		want, err := simulateReference(net, router, flows)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		run := func(workers int) Result {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			var res Result
			if err := simulateRegions(&res, net, router, flows, regions); err != nil {
				t.Fatalf("%s (GOMAXPROCS=%d): %v", name, workers, err)
			}
			return res
		}
		r1 := run(1)
		assertParity(t, name, r1, want)
		for _, workers := range []int{2, 8} {
			rw := run(workers)
			if r1.Makespan != rw.Makespan || r1.Unroutable != rw.Unroutable || r1.MaxLinkBytes != rw.MaxLinkBytes || r1.Stats != rw.Stats {
				t.Errorf("%s: header differs at GOMAXPROCS=%d: %+v vs %+v", name, workers, r1, rw)
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
