package bdp_test

import (
	"math"
	"testing"

	"github.com/hfast-sim/hfast/internal/bdp"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/netsim"
	"github.com/hfast-sim/hfast/internal/topology"
)

// TestOneMachineModel states how the repo's encodings of the paper's
// 2 KB threshold relate, so that none of them moves alone (ROADMAP item
// 9). The threshold is one literal; the profiling clock's cost model is
// Table 1's best product; the netsim fabrics are not yet on that model.
func TestOneMachineModel(t *testing.T) {
	// The provisioning cutoff is the threshold, which is 2 KB in binary
	// units.
	if topology.DefaultCutoff != bdp.TargetThreshold || bdp.TargetThreshold != 2*1024 {
		t.Errorf("DefaultCutoff %d, TargetThreshold %d, want both 2048", topology.DefaultCutoff, bdp.TargetThreshold)
	}

	// The mpi clock's latency × bandwidth is Table 1's "2 KB" in the
	// paper's decimal KB: the Altix row the threshold was chosen from.
	cm := mpi.DefaultCostModel()
	product := cm.Latency * cm.Bandwidth
	if altix := bdp.PaperProductsKB["SGI Altix"] * 1000; math.Abs(product-altix) > 1e-6 || altix != 2000 {
		t.Errorf("cost model latency × bandwidth is %g B, Table 1's Altix %g B, want both 2000", product, altix)
	}
	if math.Round(product/1000) != bdp.TargetThreshold/1024 {
		t.Errorf("cost model product %g B does not round to the threshold's %d KB", product, bdp.TargetThreshold/1024)
	}

	// netsim's links run at the cost model's bandwidth but carry no
	// endpoint latency, only per-hop switch and wire delays, so a hop's
	// product is well under a tenth of the threshold. Item 9(c) decides
	// whether netsim gains the endpoint term; until then this pins that
	// it has none.
	lp := netsim.DefaultLinkParams()
	if lp.Bandwidth != cm.Bandwidth {
		t.Errorf("netsim link bandwidth %g B/s, cost model %g B/s", lp.Bandwidth, cm.Bandwidth)
	}
	if hop := (lp.SwitchLatency + lp.WireLatency) * lp.Bandwidth; hop >= bdp.TargetThreshold/10 {
		t.Errorf("one netsim hop's latency × bandwidth is %g B, want under %d: has netsim gained an endpoint latency?", hop, bdp.TargetThreshold/10)
	}
}
