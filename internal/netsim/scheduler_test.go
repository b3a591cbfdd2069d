package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// pathRouter serves explicit per-pair paths — the scaffolding for
// adversarial component topologies no fabric would produce.
func pathRouter(paths map[[2]int][]int) Router {
	return RouterFunc(func(src, dst int) ([]int, float64, bool) {
		pa, ok := paths[[2]int{src, dst}]
		return pa, 1e-6, ok
	})
}

// mergeScenario builds a four-island network whose staggered bridges
// exercise every scheduler transition: simultaneous merges of live
// components, a merge of merged components, a same-time structural join
// onto an unborn merge node, a post-merge structural join, and a
// same-start island founded and absorbed in one step.
//
// Islands A..D have two links each (l0 shared by two flows, l1 by one),
// all active from t=0, so every later bridge unions components with live
// timelines. Timeline of bridges:
//
//	t=1ms   A–B and C–D (two merges at one barrier)
//	t=1.5ms B–C (children are the merged components) and, at the same
//	        instant, A–D (resolves to the unborn B–C merge: structural)
//	t=2ms   a flow inside A (structural join to a live merged component)
//	t=3ms   island E founded and bridged to the big component in the
//	        same step (fold, no barrier)
func mergeScenario() (*Network, Router, []Flow) {
	net := NewNetwork()
	link := func(name string) int { return net.AddLink(name, 1e9) }
	type island struct{ l0, l1 int }
	var isl [5]island // A..D + E
	for i := range isl {
		isl[i] = island{link(fmt.Sprintf("i%d.l0", i)), link(fmt.Sprintf("i%d.l1", i))}
	}

	paths := map[[2]int][]int{}
	var flows []Flow
	add := func(path []int, bytes int64, start float64) {
		k := len(flows)
		src, dst := 2*k, 2*k+1
		paths[[2]int{src, dst}] = path
		flows = append(flows, Flow{Src: src, Dst: dst, Bytes: bytes, Start: start})
	}

	for i := 0; i < 4; i++ {
		add([]int{isl[i].l0, isl[i].l1}, 2e6, 0) // contends on l0, runs past the bridges
		add([]int{isl[i].l0}, 1e6, 0)
	}
	add([]int{isl[0].l1, isl[1].l0}, 1e6, 1e-3)   // A–B merge
	add([]int{isl[2].l1, isl[3].l0}, 1e6, 1e-3)   // C–D merge, same barrier
	add([]int{isl[1].l1, isl[2].l0}, 1e6, 1.5e-3) // B–C: merge of merges
	add([]int{isl[0].l0, isl[3].l1}, 1e6, 1.5e-3) // A–D: same-time structural join
	add([]int{isl[0].l0}, 5e5, 2e-3)              // late join inside A
	add([]int{isl[4].l0}, 1e6, 3e-3)              // island E founded...
	add([]int{isl[4].l0, isl[0].l1}, 1e6, 3e-3)   // ...and folded in, same start

	return net, pathRouter(paths), flows
}

// TestSimulateMergeParity pins the component scheduler's merge protocol
// against the reference solver on the adversarial bridge scenario: every
// runtime splice — heap concat, arrival-tail interleave, counter sums —
// must leave the merged timeline indistinguishable from one serial
// timeline.
func TestSimulateMergeParity(t *testing.T) {
	net, router, flows := mergeScenario()
	want, err := simulateReference(net, router, flows)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := Simulate(net, router, flows)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	assertParity(t, "merge-scenario", got, want)
}

// TestSimulateMergeDeterminism pins bitwise GOMAXPROCS-invariance on the
// multi-component path specifically: the schedule (components, barriers,
// splices) is a pure function of the problem.
func TestSimulateMergeDeterminism(t *testing.T) {
	net, router, flows := mergeScenario()
	run := func(workers int) Result {
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		res, err := Simulate(net, router, flows)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", workers, err)
		}
		return res
	}
	r1 := run(1)
	// Four islands, three barriers, and one batched admission per island.
	if st := r1.Stats; st.Components != 4 || st.Merges != 3 || st.StormBatches != 4 || st.SuperFlows != len(flows) {
		t.Errorf("stats %+v, want 4 components, 3 merges, 4 storm batches, %d super-flows", st, len(flows))
	}
	for _, workers := range []int{2, 8} {
		rw := run(workers)
		if r1.Makespan != rw.Makespan {
			t.Errorf("makespan differs at GOMAXPROCS=%d: %.17g vs %.17g", workers, r1.Makespan, rw.Makespan)
		}
		if r1.Stats != rw.Stats {
			t.Errorf("stats differ at GOMAXPROCS=%d: %+v vs %+v", workers, r1.Stats, rw.Stats)
		}
		for i := range r1.Flows {
			if r1.Flows[i] != rw.Flows[i] {
				t.Fatalf("flow %d differs at GOMAXPROCS=%d: %+v vs %+v", i, workers, r1.Flows[i], rw.Flows[i])
			}
		}
	}
}

// TestPartitionStructure white-boxes the build-time component forest for
// the scenario: four initial components (E folds away structurally) and
// three materialized merge barriers.
func TestPartitionStructure(t *testing.T) {
	net, router, flows := mergeScenario()
	e := enginePool.Get().(*engine)
	defer e.release()
	if _, _, err := e.build(net, router, flows, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.comps) != 4 {
		t.Errorf("initial components: %d, want 4", len(e.comps))
	}
	if len(e.mergeNodes) != 3 {
		t.Errorf("merge barriers: %d, want 3", len(e.mergeNodes))
	}
	// Barrier times must be the two bridge instants, non-decreasing.
	var times []float64
	for _, m := range e.mergeNodes {
		times = append(times, e.nodes[m].birth)
	}
	if times[0] != 1e-3 || times[1] != 1e-3 || times[2] != 1.5e-3 {
		t.Errorf("barrier times %v, want [0.001 0.001 0.0015]", times)
	}
}

// TestStaggeredFabricMergeParity drives the scheduler with staggered
// application traffic on the real fabric models — components are born
// per start wave and merge as later waves bridge them — pinned against
// the reference solver.
func TestStaggeredFabricMergeParity(t *testing.T) {
	base := steadyFlows(t, "gtc", 64)
	flows := make([]Flow, len(base))
	for i, f := range base {
		f.Start += float64(f.Src%8) * 1e-4
		flows[i] = f
	}
	for name, router := range parityFabrics(t, "gtc", 64) {
		net := fabricNetwork(router)
		want, err := simulateReference(net, router, flows)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := Simulate(net, router, flows)
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		assertParity(t, name, got, want)
	}
}

// TestStallErrorIsDiagnosable pins the stall diagnostics: a flow with an
// empty path can never drain, and the error must name the component, its
// event budget, and the clock/horizon it stalled at, so a stalled
// 65536-rank replay is actionable without a rerun.
func TestStallErrorIsDiagnosable(t *testing.T) {
	net := NewNetwork()
	net.AddLink("unused", 1e9)
	router := RouterFunc(func(src, dst int) ([]int, float64, bool) {
		return []int{}, 1e-6, true
	})
	_, err := Simulate(net, router, []Flow{{Src: 0, Dst: 1, Bytes: 1000, Start: 0}})
	if err == nil {
		t.Fatal("expected stall error")
	}
	msg := err.Error()
	for _, want := range []string{"component 0", "stalled", "events", "cap", "t=", "horizon=+Inf"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall error %q missing %q", msg, want)
		}
	}
}
