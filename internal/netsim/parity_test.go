package netsim

import (
	"math"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/topology"
)

// parityTol is the per-finish tolerance between the incremental engine
// and the reference solver: 1e-9 relative (1e-9 absolute for sub-second
// finishes). The engines drain bytes in different float orders —
// whole-network every event versus component-settled on rate change —
// so individual completions may differ by rounding residue, never more.
func parityTol(a float64) float64 {
	if a < 0 {
		a = -a
	}
	if a < 1 {
		a = 1
	}
	return 1e-9 * a
}

func assertParity(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("%s: flow count %d vs %d", label, len(got.Flows), len(want.Flows))
	}
	if got.Unroutable != want.Unroutable {
		t.Errorf("%s: Unroutable %d vs %d", label, got.Unroutable, want.Unroutable)
	}
	if got.MaxLinkBytes != want.MaxLinkBytes {
		t.Errorf("%s: MaxLinkBytes %g vs %g", label, got.MaxLinkBytes, want.MaxLinkBytes)
	}
	if d := math.Abs(got.Makespan - want.Makespan); d > parityTol(want.Makespan) {
		t.Errorf("%s: Makespan %.12g vs %.12g (Δ %.3g)", label, got.Makespan, want.Makespan, d)
	}
	bad := 0
	for i := range got.Flows {
		g, w := got.Flows[i], want.Flows[i]
		if g.Routed != w.Routed {
			t.Errorf("%s: flow %d Routed %v vs %v", label, i, g.Routed, w.Routed)
			continue
		}
		if d := math.Abs(g.Finish - w.Finish); d > parityTol(w.Finish) {
			if bad < 5 {
				t.Errorf("%s: flow %d finish %.12g vs %.12g (Δ %.3g)", label, i, g.Finish, w.Finish, d)
			}
			bad++
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d finish mismatches total", label, bad)
	}
}

// steadyTraffic runs an application skeleton once and returns its
// steady-state graph and the flow set the model study replays from it:
// one aggregate flow per directed pair per step-average.
func steadyTraffic(t *testing.T, app string, procs int) (*topology.Graph, []Flow) {
	t.Helper()
	p, err := apps.ProfileRun(app, apps.Config{Procs: procs, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.FromProfile(p, ipm.SteadyState)
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Params["steps"]
	if steps <= 0 {
		steps = 1
	}
	var flows []Flow
	g.ForEachEdge(func(i, j int, e topology.Edge) {
		if e.Msgs == 0 {
			return
		}
		per := e.Vol / int64(2*steps)
		flows = append(flows, Flow{Src: i, Dst: j, Bytes: per})
		flows = append(flows, Flow{Src: j, Dst: i, Bytes: per})
	})
	return g, flows
}

// parityFabrics builds the four fabric models compared in the paper's §5
// model study over a steady-state graph's ranks, provisioning HFAST for
// that graph, and returns them by name.
func parityFabrics(t *testing.T, g *topology.Graph) map[string]Router {
	t.Helper()
	lp := DefaultLinkParams()
	procs := g.P
	a, err := hfast.Assign(g, 0, hfast.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := fattree.Design(procs, hfast.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := meshtorus.New(meshtorus.NearCube(procs, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTreeNet(procs)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Router{
		"hfast":   NewHFASTNet(a, lp),
		"fattree": NewFCNNet(procs, tree, lp),
		"mesh":    NewMeshNet(mesh, lp),
		"tree":    tn,
	}
}

func fabricNetwork(r Router) *Network {
	switch f := r.(type) {
	case *HFASTNet:
		return f.Network()
	case *FCNNet:
		return f.Network()
	case *MeshNet:
		return f.Network()
	case *TreeNet:
		return f.Network()
	}
	return nil
}
