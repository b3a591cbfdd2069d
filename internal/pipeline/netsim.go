package pipeline

import (
	"context"
	"fmt"
	"sync"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/topology"
	"github.com/hfast-sim/hfast/internal/treenet"
)

// simPool recycles Result values across replays: the fabric studies
// simulate the same flow counts over and over, so SimulateInto reuses
// the pooled FlowResult slices instead of allocating one per run.
var simPool = sync.Pool{New: func() any { return new(netsim.Result) }}

// flowsPool recycles the flow slices the Netsim stage replays. At
// P=65536 the halo skeleton carries ~400k flows (~13 MB as a slice);
// the three fabric replays of one app each rebuild that set, so the
// backing arrays are worth keeping warm across stage invocations.
var flowsPool = sync.Pool{New: func() any { return new([]netsim.Flow) }}

// Fabric names accepted by the Netsim stage.
const (
	FabricHFAST = "hfast"
	FabricFCN   = "fcn"
	FabricMesh  = "mesh"
)

// FabricResult is one fabric's simulated replay of a profile's
// steady-state traffic.
type FabricResult struct {
	Fabric   string
	Procs    int
	Flows    int
	Makespan float64 // seconds
	// Collective counts flows below the provisioning cutoff that the
	// HFAST fabric hands to the dedicated low-bandwidth tree (§2.4);
	// TreeTime is their makespan there. Both are zero for fcn/mesh.
	Collective int
	TreeTime   float64
}

type netsimInputs struct {
	Graph     Key    `json:"graph"`
	Fabric    string `json:"fabric"`
	BlockSize int    `json:"block_size"`
}

// Netsim replays the referenced profile's steady-state traffic — one
// aggregate flow per directed pair carrying one step's worth of bytes —
// on the named fabric model. Keyed by the steady-state graph, so the
// three fabric replays of one app share their upstream artifacts.
func (pl *Pipeline) Netsim(ctx context.Context, ref ProfileRef, fabric string) (*FabricResult, Outcome, error) {
	rec := ref.recipe(StageNetsim)
	rec.Filter, rec.Fabric = Steady().name, fabric
	v, how, err := pl.resolve(ctx, rec, func(fctx context.Context) (any, error) {
		return pl.runNetsim(fctx, ref, fabric)
	})
	if err != nil {
		return nil, how, err
	}
	return v.(*FabricResult), how, nil
}

func (pl *Pipeline) runNetsim(ctx context.Context, ref ProfileRef, fabric string) (*FabricResult, error) {
	prof, _, err := pl.Profile(ctx, ref)
	if err != nil {
		return nil, err
	}
	g, _, err := pl.Graph(ctx, ref, Steady())
	if err != nil {
		return nil, err
	}
	fb := flowsPool.Get().(*[]netsim.Flow)
	flows := AppendFlows((*fb)[:0], g, prof.Params["steps"])
	defer func() { *fb = flows[:0]; flowsPool.Put(fb) }()
	lp := netsim.DefaultLinkParams()
	res := &FabricResult{Fabric: fabric, Procs: prof.Procs, Flows: len(flows)}

	fail := func(err error) (*FabricResult, error) {
		return nil, fmt.Errorf("pipeline: netsim %s on %s: %w", ref.describe(), fabric, err)
	}
	switch fabric {
	case FabricHFAST:
		a, _, err := pl.Assignment(ctx, ref, Steady(), 0, hfast.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		res.Makespan, res.Collective, res.TreeTime, err = ReplayHFAST(netsim.NewHFASTNet(a, lp), prof.Procs, flows)
		if err != nil {
			return fail(err)
		}
	case FabricFCN:
		tree, err := fattree.Design(prof.Procs, hfast.DefaultBlockSize)
		if err != nil {
			return fail(err)
		}
		fn := netsim.NewFCNNet(prof.Procs, tree, lp)
		if res.Makespan, err = replay(fn.Network(), fn, flows); err != nil {
			return fail(err)
		}
	case FabricMesh:
		mesh, err := meshtorus.New(meshtorus.NearCube(prof.Procs, 3), true)
		if err != nil {
			return fail(err)
		}
		mn := netsim.NewMeshNet(mesh, lp)
		if res.Makespan, err = replay(mn.Network(), mn, flows); err != nil {
			return fail(err)
		}
	default:
		return nil, fmt.Errorf("pipeline: unknown fabric %q", fabric)
	}
	return res, nil
}

// replay simulates flows on one fabric through a pooled Result and
// returns the makespan.
func replay(nw *netsim.Network, r netsim.Router, flows []netsim.Flow) (float64, error) {
	sim := simPool.Get().(*netsim.Result)
	defer simPool.Put(sim)
	if err := netsim.SimulateInto(sim, nw, r, flows); err != nil {
		return 0, err
	}
	return sim.Makespan, nil
}

// ReplayHFAST simulates flows on an HFAST fabric over procs nodes and
// sends the ones its circuits do not carry — sub-threshold or spilled
// traffic — to the dedicated low-bandwidth tree (§2.4). It returns the
// circuit makespan, how many flows went to the tree and their makespan
// there; the two networks run side by side, so a caller after wall-clock
// takes the larger.
func ReplayHFAST(hn *netsim.HFASTNet, procs int, flows []netsim.Flow) (makespan float64, collective int, treeTime float64, err error) {
	sim := simPool.Get().(*netsim.Result)
	defer simPool.Put(sim)
	if err = netsim.SimulateInto(sim, hn.Network(), hn, flows); err != nil {
		return 0, 0, 0, err
	}
	makespan, collective = sim.Makespan, sim.Unroutable
	if collective == 0 {
		return makespan, 0, 0, nil
	}
	small := make([]netsim.Flow, 0, collective)
	for fi, fr := range sim.Flows {
		if !fr.Routed {
			small = append(small, flows[fi])
		}
	}
	tn, err := netsim.NewTreeNet(procs, treenet.DefaultParams())
	if err != nil {
		return 0, 0, 0, err
	}
	if err = netsim.SimulateInto(sim, tn.Network(), tn, small); err != nil {
		return 0, 0, 0, err
	}
	return makespan, collective, sim.Makespan, nil
}

// FlowsFor converts a profile's steady-state graph into the flow set the
// fabric studies replay: one aggregate flow per directed pair carrying
// one step's worth of bytes.
func FlowsFor(prof *ipm.Profile, g *topology.Graph) []netsim.Flow {
	return AppendFlows(nil, g, prof.Params["steps"])
}

// AppendFlows appends a traffic graph's replay flow set to flows: per
// edge that carried a message, one flow in each direction with half the
// edge's (symmetric-sum) volume, divided by steps when the graph sums
// that many steps (steps below 1 count as 1). Deterministic —
// ForEachEdge iterates in increasing (i, j) order. The Netsim stage
// passes a pooled buffer: at P=65536 a halo's flows are ~13 MB per fabric.
func AppendFlows(flows []netsim.Flow, g *topology.Graph, steps int) []netsim.Flow {
	if steps <= 0 {
		steps = 1
	}
	g.ForEachEdge(func(i, j int, e topology.Edge) {
		if e.Msgs == 0 {
			return
		}
		per := e.Vol / int64(2*steps)
		flows = append(flows, netsim.Flow{Src: i, Dst: j, Bytes: per})
		flows = append(flows, netsim.Flow{Src: j, Dst: i, Bytes: per})
	})
	return flows
}
