package netsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/engine_bits.json and engine_counts.json from this build's results")

// engineBitsPath pins what each replay returns, engineCountsPath what it
// did to get there: its Result.Stats, exact work counts that hold at any
// GOMAXPROCS, so a change that claims less work shows it as a diff of
// the file.
const (
	engineBitsPath   = "testdata/engine_bits.json"
	engineCountsPath = "testdata/engine_counts.json"
)

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
// tripled and every seventeenth shadowed by a zero-byte twin (identical
// flows sharing links, zero-byte finalization).
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

// nearApps are the near-neighbour skeletons: pinned at P=256 too, and
// cheap enough at P=64 for the reference to check their duplicated
// replays.
var nearApps = []string{"cactus", "lbmhd", "gtc"}

// engineRow is one app×size of the golden's grid; pinned rows hold
// result bits in engine_bits.json.
type engineRow struct {
	app    string
	procs  int
	pinned bool
}

// engineGrid gates the app×size matrix. The default grid, every
// skeleton at P=64 and the near-neighbour codes at P=256, is the one
// engine_bits.json pins: the all-to-all codes generate ~130k flows at
// P=256, which the quadratic reference solver needs minutes for, so
// HFAST_TEST_ULTRA=1 adds them unpinned, parity only.
// HFAST_TEST_QUICK=1 (the race and determinism CI jobs) trims to three
// apps at P=64.
func engineGrid() []engineRow {
	var rows []engineRow
	if os.Getenv("HFAST_TEST_QUICK") != "" {
		for _, app := range nearApps {
			rows = append(rows, engineRow{app, 64, true})
		}
		return rows
	}
	for _, app := range apps.Names() {
		rows = append(rows, engineRow{app, 64, true})
	}
	ultra := os.Getenv("HFAST_TEST_ULTRA") != ""
	for _, app := range apps.Names() {
		if pinned := slices.Contains(nearApps, app); pinned || ultra {
			rows = append(rows, engineRow{app, 256, pinned})
		}
	}
	return rows
}

// TestEngineBitsGolden pins the engine on every skeleton's steady-state
// traffic across all four fabric models, two ways from one run per
// replay. Every variant's result must match its row of engine_bits.json
// bit for bit; and the synchronous replay, the duplicated replays of the
// near-neighbour codes at P=64 and every fuzz seed must agree with the
// reference whole-network water-filling solver to parityTol. The bits
// catch a float operation that moved, which 1e-9 would allow; the
// reference catches a wrong answer, which a regenerated file would
// bless. The same runs pin each case's Result.Stats in a second file.
// Every case is a pure function of the problem, so both files must hold
// at any GOMAXPROCS.
func TestEngineBitsGolden(t *testing.T) {
	quick := os.Getenv("HFAST_TEST_QUICK") != ""
	if *updateBits && (quick || os.Getenv("HFAST_TEST_ULTRA") != "") {
		t.Fatal("-update needs the default grid: unset HFAST_TEST_QUICK and HFAST_TEST_ULTRA")
	}
	got, counts := map[string]string{}, map[string]Stats{}
	record := func(key string, res *Result) { got[key], counts[key] = resultBits(res), res.Stats }

	for _, row := range engineGrid() {
		t.Run(fmt.Sprintf("%s/P%d", row.app, row.procs), func(t *testing.T) {
			g, flows := steadyTraffic(t, row.app, row.procs)
			if len(flows) == 0 {
				t.Fatalf("no steady-state flows for %s at P=%d", row.app, row.procs)
			}
			variants := bitsVariants(flows)
			routers := parityFabrics(t, g)
			for _, fabric := range sortedRouters(routers) {
				router := routers[fabric]
				for mode, flows := range variants {
					label := fabric + "/" + mode
					res, err := Simulate(fabricNetwork(router), router, flows)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if row.pinned {
						record(fmt.Sprintf("%s.p%d.%s.%s", row.app, row.procs, fabric, mode), &res)
					}
					if mode != "sync" && (mode != "dup" || row.procs != 64 || !slices.Contains(nearApps, row.app)) {
						continue
					}
					want, err := simulateReference(fabricNetwork(router), router, flows)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					assertParity(t, label, res, want)
				}
			}
		})
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
			key := fmt.Sprintf("fuzz.%02d", seed)
			record(key, &res)
			want, err := simulateReference(net, router, flows)
			if err != nil {
				t.Fatalf("%s: reference: %v", key, err)
			}
			assertParity(t, key, res, want)
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
		writeGolden(t, engineBitsPath, got)
		writeGolden(t, engineCountsPath, counts)
		return
	}
	want, wantCounts := readGolden[string](t, engineBitsPath), readGolden[Stats](t, engineCountsPath)
	if !quick && (len(got) != len(want) || len(counts) != len(wantCounts)) {
		t.Errorf("%d cases run, %d pinned bits, %d pinned counts", len(got), len(want), len(wantCounts))
	}
	for key, bits := range got {
		if want[key] != bits {
			t.Errorf("%s: result bits %s, pinned %s", key, bits, want[key])
		}
		if c, ok := wantCounts[key]; !ok || c != counts[key] {
			t.Errorf("%s: work counts %+v, pinned %+v", key, counts[key], c)
		}
	}
}

// writeGolden writes m as a JSON object of one sorted key per line, so a
// diff of the file reads row by row. For string values these are the
// bytes json.MarshalIndent writes.
func writeGolden[V any](t *testing.T, path string, m map[string]V) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, key := range slices.Sorted(maps.Keys(m)) {
		k, err := json.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := json.Marshal(m[key])
		if err != nil {
			t.Fatal(err)
		}
		sep := ",\n"
		if i == len(m)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "  %s: %s%s", k, v, sep)
	}
	b.WriteString("}\n")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden[V any](t *testing.T, path string) map[string]V {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]V
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}
