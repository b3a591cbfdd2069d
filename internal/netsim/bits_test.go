package netsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/engine_bits.json from this build's results")

const engineBitsPath = "testdata/engine_bits.json"

// resultBits is the hash bench/netsim.go pins its replays with — FNV-1a
// over every flow's finish bits and routed flag — extended over the
// result header, so one word stands for every bit Simulate returns.
func resultBits(res *Result) string {
	h := uint64(14695981039346656037)
	mix := func(b uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (b >> s & 0xff)) * 1099511628211
		}
	}
	for _, f := range res.Flows {
		b := math.Float64bits(f.Finish)
		if f.Routed {
			b ^= 1 << 63
		}
		mix(b)
	}
	mix(math.Float64bits(res.Makespan))
	mix(math.Float64bits(res.MaxLinkBytes))
	mix(uint64(res.Unroutable))
	return fmt.Sprintf("%016x", h)
}

// bitsVariants are the three traffic shapes every steady-state flow list
// is replayed in: as profiled (one t=0 storm), staggered by source rank
// (components born and merged mid-run), and with every third flow
// tripled and every seventeenth shadowed by a zero-byte twin (weights
// above one, zero-byte finalization).
func bitsVariants(base []Flow) map[string][]Flow {
	stag := make([]Flow, len(base))
	var dup []Flow
	for i, f := range base {
		stag[i] = f
		stag[i].Start = float64(f.Src%4) * 1e-4
		dup = append(dup, f)
		if i%3 == 0 {
			dup = append(dup, f, f)
		}
		if i%17 == 0 {
			f.Bytes = 0
			dup = append(dup, f)
		}
	}
	return map[string][]Flow{"sync": base, "stag": stag, "dup": dup}
}

func sortedRouters(m map[string]Router) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEngineBitsGolden pins the engine's results bit for bit against a
// file generated before the record layout, cached shares, stale-only
// refresh and indexed heap went in: TestSimulateParity allows 1e-9 and
// the bench golden covers one traffic shape, neither of which would
// catch a float operation that moved. Every case is a pure function of
// the problem, so the file must hold at any GOMAXPROCS. HFAST_TEST_QUICK
// checks the same file on a reduced grid.
func TestEngineBitsGolden(t *testing.T) {
	quick := os.Getenv("HFAST_TEST_QUICK") != ""
	got := map[string]string{}
	record := func(key string, res *Result) { got[key] = resultBits(res) }

	grid := map[int][]string{64: apps.Names(), 256: {"cactus", "lbmhd", "gtc"}}
	if quick {
		grid = map[int][]string{64: {"cactus", "gtc"}}
	}
	for procs, names := range grid {
		for _, app := range names {
			variants := bitsVariants(steadyFlows(t, app, procs))
			routers := parityFabrics(t, app, procs)
			for _, fabric := range sortedRouters(routers) {
				router := routers[fabric]
				for mode, flows := range variants {
					res, err := Simulate(fabricNetwork(router), router, flows)
					if err != nil {
						t.Fatalf("%s/P%d/%s/%s: %v", app, procs, fabric, mode, err)
					}
					record(fmt.Sprintf("%s.p%d.%s.%s", app, procs, fabric, mode), &res)
				}
			}
		}
	}

	t.Run("fuzz", func(t *testing.T) {
		forceSharded(t)
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nodes := 3 + int(seed%9)
			net, router := fuzzFabric(rng, nodes)
			flows := fuzzFlows(rng, nodes, 16+2*int(seed))
			regions := randomCut(rng, net.Links(), 2+rng.Intn(5))
			var res Result
			if err := simulateRegions(&res, net, router, flows, regions); err != nil {
				t.Fatalf("fuzz seed %d: %v", seed, err)
			}
			record(fmt.Sprintf("fuzz.%02d", seed), &res)
		}
	})

	// The P=4096 storm is the one in-package solve over more than 8 192
	// links, the size the in-solve fan-outs took over at; its rows were
	// generated while those fan-outs existed and held when they went.
	halo := []int{1024, 4096}
	if quick {
		halo = nil
	}
	for _, procs := range halo {
		g, flows := haloTraffic(t, procs)
		routers := benchFabrics(t, g, procs)
		for _, fabric := range sortedRouters(routers) {
			router := routers[fabric]
			for mode, fl := range map[string][]Flow{"sync": flows, "stag": staggered(flows)} {
				res, err := Simulate(fabricNetwork(router), router, fl)
				if err != nil {
					t.Fatalf("halo/P%d/%s/%s: %v", procs, fabric, mode, err)
				}
				record(fmt.Sprintf("halo.p%d.%s.%s", procs, fabric, mode), &res)
			}
		}
	}

	if *updateBits {
		if quick {
			t.Fatal("-update needs the full grid: unset HFAST_TEST_QUICK")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineBitsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(engineBitsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", engineBitsPath, err)
	}
	if !quick && len(got) != len(want) {
		t.Errorf("%d cases run, %d pinned", len(got), len(want))
	}
	for key, bits := range got {
		if want[key] != bits {
			t.Errorf("%s: result bits %s, pinned %s", key, bits, want[key])
		}
	}
}
