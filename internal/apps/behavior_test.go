package apps_test

import (
	"fmt"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/topology"
)

// steadyGraph builds a topology graph from a profile, failing the test on
// a malformed profile.
func steadyGraph(t *testing.T, p *ipm.Profile, filter ipm.RegionFilter) *topology.Graph {
	t.Helper()
	g, err := topology.FromProfile(p, filter)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// quickProfile runs an app at a small size with few steps.
func quickProfile(t *testing.T, app string, procs int) *ipm.Profile {
	t.Helper()
	p, err := apps.ProfileRun(app, apps.Config{Procs: procs, Steps: 2})
	if err != nil {
		t.Fatalf("%s at P=%d: %v", app, procs, err)
	}
	return p
}

func TestProfileRunValidation(t *testing.T) {
	if _, err := apps.ProfileRun("nonesuch", apps.Config{Procs: 4}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := apps.ProfileRun("cactus", apps.Config{}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestAllAppsRunAtSmallSizes(t *testing.T) {
	for _, name := range apps.Names() {
		for _, procs := range []int{8, 16} {
			p := quickProfile(t, name, procs)
			if p.Procs != procs || p.App != name {
				t.Errorf("%s/%d: bad metadata %+v", name, procs, p)
			}
			if p.TotalCalls(ipm.AllRegions) == 0 {
				t.Errorf("%s/%d: no calls recorded", name, procs)
			}
			// Every app has an init region and step regions.
			if p.TotalCalls(ipm.Region("init")) == 0 {
				t.Errorf("%s/%d: no init region traffic", name, procs)
			}
			if p.TotalCalls(ipm.Region("step000")) == 0 {
				t.Errorf("%s/%d: no step000 region traffic", name, procs)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := apps.Config{Procs: 16, Steps: 2, Seed: 7}
	a, err := apps.ProfileRun("gtc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.ProfileRun("gtc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ga := steadyGraph(t, a, ipm.SteadyState)
	gb := steadyGraph(t, b, ipm.SteadyState)
	for i := 0; i < ga.P; i++ {
		for j := 0; j < ga.P; j++ {
			if ga.Vol(i, j) != gb.Vol(i, j) {
				t.Fatalf("nondeterministic traffic at (%d,%d): %d vs %d", i, j, ga.Vol(i, j), gb.Vol(i, j))
			}
		}
	}
}

func TestCactusPartnersAreGridNeighbors(t *testing.T) {
	p := quickProfile(t, "cactus", 64) // 4x4x4
	g := steadyGraph(t, p, ipm.SteadyState)
	deg := g.Degrees(0)
	for i, d := range deg {
		if d > 6 {
			t.Errorf("rank %d has %d partners, stencil max is 6", i, d)
		}
	}
	// Ghost faces all the same size: scale²×8.
	hist := p.PTPSizes(ipm.SteadyState)
	if len(hist) != 1 {
		t.Errorf("cactus should use one ghost size, got %d: %+v", len(hist), hist)
	}
}

func TestCactusScaleControlsMessageSize(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 8, Steps: 1, Scale: 10})
	if err != nil {
		t.Fatal(err)
	}
	hist := p.PTPSizes(ipm.SteadyState)
	if len(hist) != 1 || hist[0].Bytes != 10*10*8 {
		t.Errorf("scale 10 ghost size: %+v, want 800", hist)
	}
}

func TestLBMHDTwelvePartners(t *testing.T) {
	p := quickProfile(t, "lbmhd", 64)
	g := steadyGraph(t, p, ipm.SteadyState)
	st := g.Stats(0)
	if st.Max != 12 || st.Min != 12 {
		t.Errorf("lbmhd degrees (min %d, max %d), want 12,12", st.Min, st.Max)
	}
	// Insensitive to thresholding: streams are ~800KB.
	if st2 := g.Stats(topology.DefaultCutoff); st2.Max != 12 {
		t.Errorf("lbmhd thresholded max %d, want 12", st2.Max)
	}
}

// TestDegreeLaws checks each skeleton's degree at the 2 KB cutoff against
// the law in P its doc comment states, at P = 64, 256 and 1024: cactus
// reaches its 6 faces and no more, lbmhd has exactly its 12 streaming
// partners at every rank, whatever P.
func TestDegreeLaws(t *testing.T) {
	for _, law := range []struct {
		app   string
		law   string
		holds func(st topology.TDCStats) bool
	}{
		{"cactus", "max 6", func(st topology.TDCStats) bool { return st.Max == 6 }},
		{"lbmhd", "exactly 12", func(st topology.TDCStats) bool { return st.Min == 12 && st.Max == 12 }},
	} {
		for _, procs := range []int{64, 256, 1024} {
			t.Run(fmt.Sprintf("%s/P%d", law.app, procs), func(t *testing.T) {
				g := steadyGraph(t, quickProfile(t, law.app, procs), ipm.SteadyState)
				if st := g.Stats(topology.DefaultCutoff); !law.holds(st) {
					t.Errorf("degree min %d, max %d at 2 KB; the law is %s", st.Min, st.Max, law.law)
				}
			})
		}
	}
}

func TestGTCMastersCarryHighDegree(t *testing.T) {
	p := quickProfile(t, "gtc", 256)
	g := steadyGraph(t, p, ipm.SteadyState)
	deg := g.Degrees(0)
	// Masters are ranks ≡ 0 mod 4; they must dominate the degree
	// distribution (diagnostic partners).
	maxMaster, maxOther := 0, 0
	for i, d := range deg {
		if i%4 == 0 {
			if d > maxMaster {
				maxMaster = d
			}
		} else if d > maxOther {
			maxOther = d
		}
	}
	if maxMaster <= maxOther {
		t.Errorf("masters max %d not above non-masters %d", maxMaster, maxOther)
	}
}

func TestGTCUsesSubcommunicatorGathers(t *testing.T) {
	p := quickProfile(t, "gtc", 16)
	counts := p.CallCounts(ipm.SteadyState)
	if counts[mpi.CallGather] == 0 {
		t.Error("gtc recorded no gathers")
	}
	if counts[mpi.CallSendrecv] == 0 {
		t.Error("gtc recorded no sendrecvs")
	}
}

func TestSuperLUDegreeScalesWithSqrtP(t *testing.T) {
	p64 := quickProfile(t, "superlu", 64)
	p256 := quickProfile(t, "superlu", 256)
	g64 := steadyGraph(t, p64, ipm.SteadyState)
	g256 := steadyGraph(t, p256, ipm.SteadyState)
	d64 := g64.Stats(topology.DefaultCutoff).Max
	d256 := g256.Stats(topology.DefaultCutoff).Max
	if d64 != 14 {
		t.Errorf("superlu P=64 thresholded max %d, want 14 (2·8−2)", d64)
	}
	if d256 != 30 {
		t.Errorf("superlu P=256 thresholded max %d, want 30 (2·16−2)", d256)
	}
	// Unthresholded: everyone talks to everyone over the run.
	if g256.Stats(0).Min != 255 {
		t.Errorf("superlu raw min degree %d, want 255", g256.Stats(0).Min)
	}
}

func TestSuperLUInitExcluded(t *testing.T) {
	p := quickProfile(t, "superlu", 16)
	gAll := steadyGraph(t, p, ipm.AllRegions)
	gSteady := steadyGraph(t, p, ipm.SteadyState)
	// Rank 0's matrix distribution is init-only traffic.
	if gAll.Vol(0, 15) <= gSteady.Vol(0, 15) {
		t.Error("init distribution did not add volume")
	}
}

func TestSuperLUZeroByteSends(t *testing.T) {
	p := quickProfile(t, "superlu", 16)
	hist := p.PTPSizes(ipm.SteadyState)
	if len(hist) == 0 || hist[0].Bytes != 0 {
		t.Errorf("superlu should record 0-byte sends, got %+v", hist[:min(3, len(hist))])
	}
}

func TestPMEMDMasterKeepsFullDegree(t *testing.T) {
	p := quickProfile(t, "pmemd", 64)
	g := steadyGraph(t, p, ipm.SteadyState)
	deg := g.Degrees(topology.DefaultCutoff)
	if deg[0] != 63 {
		t.Errorf("pmemd master degree %d, want 63", deg[0])
	}
}

func TestPMEMDVolumeDecaysWithDistance(t *testing.T) {
	p := quickProfile(t, "pmemd", 64)
	g := steadyGraph(t, p, ipm.SteadyState)
	// Rank 21 (not the master) communicates more with a grid neighbor
	// than with the far corner. 4x4x4 grid: 21=(1,1,1); neighbor 22=(2,1,1);
	// far 63=(3,3,3) at distance 2+2+2=6... wraps to 2+2+2=6? farthest is
	// distance 6 → compare volumes.
	near := g.Vol(21, 22)
	far := g.Vol(21, 63)
	if near <= far {
		t.Errorf("near volume %d not above far volume %d", near, far)
	}
}

func TestPARATECFullConnectivityUntil32K(t *testing.T) {
	p := quickProfile(t, "paratec", 64)
	g := steadyGraph(t, p, ipm.SteadyState)
	if st := g.Stats(topology.DefaultCutoff); st.Min != 63 {
		t.Errorf("paratec thresholded min degree %d, want 63", st.Min)
	}
	// Above 32KB only the local-transpose neighbors remain.
	st := g.Stats(64 << 10)
	if st.Max >= 63 || st.Max == 0 {
		t.Errorf("paratec 64KB-cutoff max %d, want ~8 diagonal neighbors", st.Max)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
