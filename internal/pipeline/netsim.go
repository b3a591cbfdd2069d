package pipeline

import (
	"context"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/topology"
)

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
	rec.Filter, rec.Fabric = ipm.SteadyState, fabric
	return get[*FabricResult](ctx, pl, ref, rec)
}

// replay is the netsim stage's own step: prof's traffic graph g replayed
// on a checked fabric; a is g's assignment, which FabricHFAST alone uses.
func replay(fabric string, prof *ipm.Profile, g *topology.Graph, a *hfast.Assignment) (*FabricResult, error) {
	flows := AppendFlows(nil, g, prof.Params["steps"])
	lp := netsim.DefaultLinkParams()
	res := &FabricResult{Fabric: fabric, Procs: prof.Procs, Flows: len(flows)}
	var nw *netsim.Network
	var router netsim.Router
	switch fabric {
	case FabricHFAST:
		var err error
		res.Makespan, res.Collective, res.TreeTime, err = ReplayHFAST(netsim.NewHFASTNet(a, lp), prof.Procs, flows)
		return res, err
	case FabricFCN:
		tree, err := fattree.Design(prof.Procs, hfast.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		fn := netsim.NewFCNNet(prof.Procs, tree, lp)
		nw, router = fn.Network(), fn
	default: // FabricMesh: the recipe check admits no other name
		mesh, err := meshtorus.Baseline(prof.Procs)
		if err != nil {
			return nil, err
		}
		mn := netsim.NewMeshNet(mesh, lp)
		nw, router = mn.Network(), mn
	}
	sim, err := netsim.Simulate(nw, router, flows)
	res.Makespan = sim.Makespan
	return res, err
}

// ReplayHFAST simulates flows on an HFAST fabric over procs nodes and
// sends the ones its circuits do not carry — sub-threshold or spilled
// traffic — to the dedicated low-bandwidth tree (§2.4). It returns the
// circuit makespan, how many flows went to the tree and their makespan
// there; the two networks run side by side, so a caller after wall-clock
// takes the larger.
func ReplayHFAST(hn *netsim.HFASTNet, procs int, flows []netsim.Flow) (makespan float64, collective int, treeTime float64, err error) {
	var sim netsim.Result
	if err = netsim.SimulateInto(&sim, hn.Network(), hn, flows); err != nil {
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
	tn, err := netsim.NewTreeNet(procs)
	if err != nil {
		return 0, 0, 0, err
	}
	if err = netsim.SimulateInto(&sim, tn.Network(), tn, small); err != nil {
		return 0, 0, 0, err
	}
	return makespan, collective, sim.Makespan, nil
}

// AppendFlows appends a traffic graph's replay flow set to flows: per
// edge that carried a message, one flow in each direction with half the
// edge's (symmetric-sum) volume, divided by steps when the graph sums
// that many steps (steps below 1 count as 1). Deterministic —
// ForEachEdge iterates in increasing (i, j) order.
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
