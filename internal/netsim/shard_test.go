package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// forceSharded drops the sharded-solve threshold so the small test grids
// exercise the region-sharded machinery, and restores it on cleanup.
func forceSharded(t *testing.T) {
	t.Helper()
	prev := shardedSolveMin
	shardedSolveMin = 2
	t.Cleanup(func() { shardedSolveMin = prev })
}

// randomCut draws an adversarial region assignment: every link gets a
// random region in [0,nr), with one in eight links regionless (-1). With
// links scattered like this nearly every multi-hop flow crosses a cut,
// so the partitioner sees boundary flows on every boundary and most
// components collapse through the union-find — the worst case for the
// sharded solve, which must still match the flat engine.
func randomCut(rng *rand.Rand, nLinks, nr int) []int32 {
	regions := make([]int32, nLinks)
	for i := range regions {
		if rng.Intn(8) == 0 {
			regions[i] = -1
		} else {
			regions[i] = int32(rng.Intn(nr))
		}
	}
	return regions
}

// TestSimulateShardedCutParity pins the region-sharded engine against the
// reference solver under region cuts the fabrics would never produce:
// random per-link regions (boundary flows everywhere) and, on the mesh
// (the one RegionHinter), its own torus-block cut. The cut is a pure
// performance hint, so every cut must yield reference-parity results.
func TestSimulateShardedCutParity(t *testing.T) {
	forceSharded(t)
	for _, app := range []string{"cactus", "gtc"} {
		g, flows := steadyTraffic(t, app, 64)
		for name, router := range parityFabrics(t, g) {
			net := fabricNetwork(router)
			want, err := simulateReference(net, router, flows)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", app, name, err)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				regions := randomCut(rng, net.Links(), 2+rng.Intn(6))
				var got Result
				if err := simulateRegions(&got, net, router, flows, regions); err != nil {
					t.Fatalf("%s/%s/cut%d: engine: %v", app, name, trial, err)
				}
				assertParity(t, fmt.Sprintf("%s/%s/cut%d", app, name, trial), got, want)
			}
			if rh, ok := router.(RegionHinter); ok {
				var got Result
				if err := simulateRegions(&got, net, router, flows, rh.LinkRegions(4)); err != nil {
					t.Fatalf("%s/%s/hint: engine: %v", app, name, err)
				}
				assertParity(t, fmt.Sprintf("%s/%s/hint", app, name), got, want)
			}
		}
	}
}

// TestSimulateWorkerCountDeterminism pins the engine's strongest claim:
// the component scheduler and the sharded solve are bit-identical across
// GOMAXPROCS={1,2,8}, because every partition — scheduler components,
// merge barriers, shard components — is a pure function of the problem,
// never of the worker count. Staggered starts split the
// replay into components that merge mid-run, so the concurrent
// component path (not just the single-timeline fast path) is under
// test.
func TestSimulateWorkerCountDeterminism(t *testing.T) {
	forceSharded(t)
	g, base := steadyTraffic(t, "cactus", 64)
	// Stagger start times per source rank so the scheduler sees many
	// live components whose timelines merge as later flows bridge them.
	flows := make([]Flow, len(base))
	for i, f := range base {
		f.Start += float64(f.Src%16) * 1e-4
		flows[i] = f
	}
	for name, router := range parityFabrics(t, g) {
		net := fabricNetwork(router)
		var regions []int32
		if rh, ok := router.(RegionHinter); ok {
			regions = rh.LinkRegions(8)
		} else {
			regions = randomCut(rand.New(rand.NewSource(3)), net.Links(), 8)
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
		for _, workers := range []int{2, 8} {
			rw := run(workers)
			if r1.Makespan != rw.Makespan || r1.Unroutable != rw.Unroutable || r1.MaxLinkBytes != rw.MaxLinkBytes {
				t.Errorf("%s: header differs at GOMAXPROCS=%d: %+v vs %+v", name, workers, r1, rw)
			}
			// What the engine did is as much a function of the problem as
			// what it answered.
			if r1.Stats != rw.Stats {
				t.Errorf("%s: stats differ at GOMAXPROCS=%d: %+v vs %+v", name, workers, r1.Stats, rw.Stats)
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

// TestRegionHinterShapes sanity-checks the mesh's LinkRegions contract
// (one id per link, ids dense in [-1, target), at least two regions
// actually used at paper scale) and that the mesh is the only fabric
// that hints.
func TestRegionHinterShapes(t *testing.T) {
	g, _ := steadyTraffic(t, "cactus", 256)
	for name, router := range parityFabrics(t, g) {
		rh, ok := router.(RegionHinter)
		if ok != (name == "mesh") {
			t.Errorf("%s: implements RegionHinter = %v, want %v", name, ok, name == "mesh")
		}
		if !ok {
			continue
		}
		net := fabricNetwork(router)
		target := 8
		regions := rh.LinkRegions(target)
		if len(regions) != net.Links() {
			t.Fatalf("%s: %d region ids for %d links", name, len(regions), net.Links())
		}
		used := map[int32]bool{}
		for l, r := range regions {
			// "Roughly target" regions: integer block shapes (torus cuts)
			// may overshoot, but never by more than a factor of two.
			if r < -1 || int(r) >= 2*target {
				t.Fatalf("%s: link %d region %d out of [-1,%d)", name, l, r, 2*target)
			}
			if r >= 0 {
				used[r] = true
			}
		}
		if len(used) < 2 {
			t.Errorf("%s: only %d regions used at target %d", name, len(used), target)
		}
		// The table is memoised per fabric: a second call answers with the
		// same table, a different target recomputes, and coming back to the
		// first target gives the first answer again.
		if again := rh.LinkRegions(target); !slices.Equal(again, regions) {
			t.Errorf("%s: second LinkRegions(%d) differs from the first", name, target)
		}
		if other := rh.LinkRegions(2); slices.Equal(other, regions) {
			t.Errorf("%s: LinkRegions(2) returned the target-%d table", name, target)
		}
		if back := rh.LinkRegions(target); !slices.Equal(back, regions) {
			t.Errorf("%s: LinkRegions(%d) after another target differs from the first", name, target)
		}
	}
}
