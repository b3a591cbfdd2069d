package hfast_test

import (
	"testing"

	"github.com/hfast-sim/hfast"
)

func TestFacadeEndToEnd(t *testing.T) {
	prof, err := hfast.RunApp("cactus", hfast.Config{Procs: 16, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := hfast.Summarize(prof)
	if err != nil {
		t.Fatal(err)
	}
	if sum.App != "cactus" || sum.Procs != 16 {
		t.Fatalf("summary metadata %+v", sum)
	}
	if sum.TDCMax > 6 {
		t.Errorf("cactus TDC %d > 6", sum.TDCMax)
	}
	g, err := hfast.BuildGraph(prof)
	if err != nil {
		t.Fatal(err)
	}
	if g.P != 16 {
		t.Fatalf("graph size %d", g.P)
	}
	params := hfast.DefaultParams()
	a, err := hfast.Provision(g, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBlocks != 16 {
		t.Errorf("cactus should get one block per node, got %d", a.TotalBlocks)
	}
	cmp, err := hfast.CompareCosts(a, params)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.HFAST.Total() <= 0 || cmp.FatTree.Total() <= 0 {
		t.Error("non-positive costs")
	}
}

func TestFacadeApps(t *testing.T) {
	if _, err := hfast.RunApp("nope", hfast.Config{Procs: 4}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFacadeCutoffConstant(t *testing.T) {
	if hfast.DefaultCutoff != 2048 {
		t.Errorf("default cutoff %d, want 2048 (the paper's 2KB BDP)", hfast.DefaultCutoff)
	}
}
