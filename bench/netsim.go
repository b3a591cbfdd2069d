package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/topology"
)

// netsimTitleP is the title scale: one traced replay, never timed.
const netsimTitleP = 65536

// haloTraffic is the generator of internal/netsim/bench_test.go: a 3-D
// nearest-neighbour exchange on a near-cube lattice, every rank sending
// one flow to each of its ≤ 6 neighbours, with a per-pair size jitter so
// completions spread into thousands of distinct events.
func haloTraffic(procs int) (*topology.Graph, meshtorus.Mesh, []netsim.Flow, error) {
	m, err := meshtorus.New(meshtorus.NearCube(procs, 3), true)
	if err != nil {
		return nil, m, nil, err
	}
	g, err := topology.NewGraph(procs)
	if err != nil {
		return nil, m, nil, err
	}
	var flows []netsim.Flow
	for r := 0; r < procs; r++ {
		for _, nb := range m.Neighbors(r) {
			bytes := int64(64<<10 + ((r*131 + nb*17) % 977 * 64))
			if err := g.AddTraffic(r, nb, 1, bytes, int(bytes)); err != nil {
				return nil, m, nil, err
			}
			flows = append(flows, netsim.Flow{Src: r, Dst: nb, Bytes: bytes})
		}
	}
	return g, m, flows, nil
}

// stagger starts each source rank's flows (Src%16)·100 µs late, so
// thousands of components are born and merge mid-run, where `sync`
// percolates into one component at t=0.
func stagger(flows []netsim.Flow) []netsim.Flow {
	out := append([]netsim.Flow(nil), flows...)
	for i := range out {
		out[i].Start += float64(out[i].Src%16) * 1e-4
	}
	return out
}

// replayConfig is one fabric × size × start pattern, ready to simulate.
type replayConfig struct {
	fabric string
	procs  int
	mode   string
	net    *netsim.Network
	router netsim.Router
	flows  []netsim.Flow
}

func (c *replayConfig) key() string { return fmt.Sprintf("%s.p%d.%s", c.fabric, c.procs, c.mode) }

// buildFabric constructs one fabric model for the halo graph (for hfast,
// the provisioning too) and returns it with its network.
func buildFabric(fabric string, procs int, g *topology.Graph, mesh meshtorus.Mesh) (netsim.Router, *netsim.Network, error) {
	lp := netsim.DefaultLinkParams()
	switch fabric {
	case "hfast":
		a, err := hfast.Assign(g, 0, hfast.DefaultBlockSize)
		if err != nil {
			return nil, nil, err
		}
		n := netsim.NewHFASTNet(a, lp)
		return n, n.Network(), nil
	case "fattree":
		tree, err := fattree.Design(procs, hfast.DefaultBlockSize)
		if err != nil {
			return nil, nil, err
		}
		n := netsim.NewFCNNet(procs, tree, lp)
		return n, n.Network(), nil
	case "mesh":
		n := netsim.NewMeshNet(mesh, lp)
		return n, n.Network(), nil
	}
	return nil, nil, fmt.Errorf("unknown fabric %q", fabric)
}

// buildConfigs builds every fabric at every size; buildMS receives the
// construction time of each (fabric, size).
func buildConfigs(sizes []int, buildMS func(fabric string, procs int, ms float64)) ([]*replayConfig, error) {
	var out []*replayConfig
	for _, procs := range sizes {
		g, mesh, flows, err := haloTraffic(procs)
		if err != nil {
			return nil, err
		}
		stag := stagger(flows)
		for _, fabric := range netsimFabrics {
			start := time.Now()
			router, net, err := buildFabric(fabric, procs, g, mesh)
			if err != nil {
				return nil, err
			}
			buildMS(fabric, procs, float64(time.Since(start))/float64(time.Millisecond))
			out = append(out,
				&replayConfig{fabric, procs, "sync", net, router, flows},
				&replayConfig{fabric, procs, "stag", net, router, stag})
		}
	}
	return out, nil
}

// replayGolden pins one configuration's result: the header floats bit
// for bit, and a hash over every flow's finish time.
type replayGolden struct {
	Flows        int    `json:"flows"`
	Unroutable   int    `json:"unroutable"`
	MakespanBits string `json:"makespan_bits"`
	MaxLinkBits  string `json:"max_link_bytes_bits"`
	FinishHash   string `json:"finish_hash"`
}

func goldenOf(res *netsim.Result) replayGolden {
	// FNV-1a over the finish times' bits and routed flags: cheap enough
	// to run on every timed replay.
	h := uint64(14695981039346656037)
	for _, f := range res.Flows {
		b := math.Float64bits(f.Finish)
		if f.Routed {
			b ^= 1 << 63
		}
		for s := 0; s < 64; s += 8 {
			h = (h ^ (b >> s & 0xff)) * 1099511628211
		}
	}
	return replayGolden{
		Flows:        len(res.Flows),
		Unroutable:   res.Unroutable,
		MakespanBits: fmt.Sprintf("%016x", math.Float64bits(res.Makespan)),
		MaxLinkBits:  fmt.Sprintf("%016x", math.Float64bits(res.MaxLinkBytes)),
		FinishHash:   fmt.Sprintf("%016x", h),
	}
}

const goldenPath = "testdata/netsim_golden.json"

// readGolden loads the golden file, from the repository root or from
// bench/ itself.
func readGolden() (map[string]replayGolden, error) {
	var data []byte
	var err error
	for _, dir := range []string{"bench/", ""} {
		if data, err = os.ReadFile(dir + goldenPath); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var g map[string]replayGolden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func simulate(c *replayConfig) (*netsim.Result, error) {
	res, err := netsim.Simulate(c.net, c.router, c.flows)
	return &res, err
}

// replay runs one simulation and checks it against the golden entry.
func (c *replayConfig) replay(golden map[string]replayGolden) (time.Duration, error) {
	start := time.Now()
	res, err := simulate(c)
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	want, ok := golden[c.key()]
	if !ok {
		return took, fmt.Errorf("%s: no golden entry", c.key())
	}
	if got := goldenOf(res); got != want {
		return took, fmt.Errorf("%s: result %+v differs from golden %+v", c.key(), got, want)
	}
	return took, nil
}

// setupNetsimReplay builds the halo traffic and the three fabrics at
// P = 1024, 4096 and 16384. One cycle replays every fabric × size ×
// {sync, stag}; there is no HTTP and one caller, because the simulator
// spreads over the cores itself.
func setupNetsimReplay(o options) (*instance, error) {
	sizes := netsimSizes
	if o.smoke {
		sizes = sizes[:1]
	}
	builds := map[string]float64{}
	configs, err := buildConfigs(sizes, func(fabric string, procs int, ms float64) {
		if procs == netsimTopP {
			builds[fabric] = ms
		}
	})
	if err != nil {
		return nil, err
	}
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	gen := func(set []*replayConfig) func(int) []task {
		return func(n int) []task {
			order := rand.New(rand.NewSource(o.seed*7919 + int64(n))).Perm(len(set))
			tasks := make([]task, len(set))
			for i, k := range order {
				cfg := set[k]
				tasks[i] = func(c *client) {
					before := totalAllocMB()
					start := time.Now()
					_, err := cfg.replay(golden)
					// The golden check rides in the op: it is O(flows) next
					// to a simulation that is far more.
					c.op("netsim."+cfg.key(), start, err)
					// One caller, so the allocation is this replay's own. The
					// window's total swings with whether the GC dropped the
					// pooled arenas between replays; the median replay's
					// does not.
					if err == nil {
						c.samples[len(c.samples)-1].allocMB = totalAllocMB() - before
					}
				}
			}
			return tasks
		}
	}
	in := &instance{clients: 1, close: func() {}}
	in.cycle = gen(configs)
	// The warm-up grows the pooled arenas at the smallest size only; a
	// full cycle would spend a whole window's time unmeasured.
	var small []*replayConfig
	for _, c := range configs {
		if c.procs == sizes[0] {
			small = append(small, c)
		}
	}
	in.warm = gen(small)
	in.layers = func(p layerPass) (float64, error) { return 0, netsimLayers(p, configs, builds, golden) }
	return in, nil
}

// netsimLayers turns the two replays of the traced run into the
// per-configuration rows and adds the rows no timed window can hold:
// allocation and build cost at the top size, single-core scaling, and
// the one title-scale replay.
func netsimLayers(p layerPass, configs []*replayConfig, builds map[string]float64, golden map[string]replayGolden) error {
	m := p.m
	for _, c := range configs {
		samples := append(append([]float64(nil), p.plain.byName["netsim."+c.key()]...), p.traced.byName["netsim."+c.key()]...)
		m.set(netsimRow(c.fabric, c.procs, c.mode), median(samples))
	}
	if p.o.smoke {
		return nil
	}
	for _, c := range configs {
		if c.procs != netsimTopP || c.mode != "stag" {
			continue
		}
		// Allocation of one replay once the arenas are grown.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		multi, err := c.replay(golden)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		m.set(fmt.Sprintf("netsim.alloc_mb.%s.p%d", c.fabric, netsimTopP), float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		m.set(fmt.Sprintf("netsim.build_ms.%s.p%d", c.fabric, netsimTopP), builds[c.fabric])
		// The same replay on one core ÷ on all of them.
		prev := runtime.GOMAXPROCS(1)
		single, err := c.replay(golden)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		m.set("netsim.scaling."+c.fabric, single.Seconds()/multi.Seconds())
	}

	g, mesh, flows, err := haloTraffic(netsimTitleP)
	if err != nil {
		return err
	}
	router, net, err := buildFabric("fattree", netsimTitleP, g, mesh)
	if err != nil {
		return err
	}
	var res netsim.Result
	start := time.Now()
	p.tr.call("netsim.Simulate.p65536", nil, func() { res, err = netsim.Simulate(net, router, flows) })
	if err != nil {
		return err
	}
	if res.Unroutable != 0 {
		return fmt.Errorf("title-scale replay left %d flows unroutable", res.Unroutable)
	}
	m.set("netsim.fattree.p65536.sync_s", time.Since(start).Seconds())
	return nil
}
