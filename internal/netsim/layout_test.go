package netsim

import (
	"testing"
	"unsafe"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestRecordLayout holds the hot records to their cache-line budget: a
// flow or link visit is one random index, and it must cost one line.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(flowRec{}); n != 64 {
		t.Errorf("flowRec is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(linkRec{}); n > 64 {
		t.Errorf("linkRec is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(solveRec{}); n != 24 {
		t.Errorf("solveRec is %d bytes, want 24", n)
	}
}

// haloReplays runs f on the ledger's P=1024 halo replays: three fabrics,
// synchronous and staggered starts.
func haloReplays(t *testing.T, f func(name string, net *Network, router Router, flows []Flow)) {
	g, flows := haloTraffic(t, 1024)
	routers := benchFabrics(t, g, 1024)
	modes := map[string][]Flow{"sync": flows, "stag": staggered(flows)}
	for _, fabric := range sortedRouters(routers) {
		for _, mode := range []string{"sync", "stag"} {
			f(fabric+"/"+mode, fabricNetwork(routers[fabric]), routers[fabric], modes[mode])
		}
	}
}

// TestHeapHoldsOnlyLiveFlows gates the indexed completion heap without a
// clock: a component heap holds one entry per draining flow, so its peak
// can never pass the flow count (a lazily-invalidated heap, one
// push per rate change, peaks at several times that), and every entry is
// gone once the last flow retires.
func TestHeapHoldsOnlyLiveFlows(t *testing.T) {
	haloReplays(t, func(name string, net *Network, router Router, flows []Flow) {
		e := enginePool.Get().(*engine)
		defer e.release()
		if _, _, err := e.build(net, router, flows, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := e.runScheduled(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := e.stats()
		if st.PeakHeap == 0 || st.PeakHeap > st.Flows {
			t.Errorf("%s: heap peaked at %d entries for %d flows", name, st.PeakHeap, st.Flows)
		}
		for i := range e.comps {
			if c := &e.comps[i]; !c.merged && len(c.heap) != 0 {
				t.Errorf("%s: component %d finished with %d heap entries", name, c.id, len(c.heap))
			}
		}
		for fi := range e.flows {
			if e.flows[fi].heapPos >= 0 {
				t.Fatalf("%s: flow %d still indexes heap slot %d", name, fi, e.flows[fi].heapPos)
			}
		}
	})
}

// TestWarmReplayAllocs gates the arena reuse without a clock: once the
// pooled engine and the caller's Result have grown, a replay allocates
// next to nothing — no per-flow path slices, no region table, no heap
// growth. Routing forks no workers, and at GOMAXPROCS 1, 2, 4, 8 and 16
// the count is the same: 3 on every fabric. The ceiling is twice that.
func TestWarmReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the engine is rebuilt every replay")
	}
	haloReplays(t, func(name string, net *Network, router Router, flows []Flow) {
		var res Result
		replay := func() {
			if err := SimulateInto(&res, net, router, flows); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		replay() // AllocsPerRun's own warm-up call is the second replay
		if n := testing.AllocsPerRun(1, replay); n > 6 {
			t.Errorf("%s: %.0f allocations in a warm replay, want <= 6", name, n)
		} else {
			t.Logf("%s: %.0f allocations", name, n)
		}
	})
}
