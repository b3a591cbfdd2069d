package fattree

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDesignPaperExample(t *testing.T) {
	// The paper's example: a 6-layer fat-tree of 8-port switches connects
	// 2·4^6 = 8192 ≥ 2048 processors... the smallest tree for 2048 procs
	// at radix 8 is L=5 (2·4^5 = 2048), and the paper's 6-layer/11-port
	// figure corresponds to P = 2·4^6.
	tr, err := Design(8192, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Layers != 6 {
		t.Errorf("layers %d, want 6", tr.Layers)
	}
	if tr.PortsPerProc() != 11 {
		t.Errorf("ports/proc %d, want 11 (the paper's example)", tr.PortsPerProc())
	}
	if tr.MaxSwitchHops() != 21 {
		t.Errorf("max hops %d, want 21 (the paper's example)", tr.MaxSwitchHops())
	}
}

func TestDesignExactCapacity(t *testing.T) {
	tr, err := Design(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Layers != 5 || tr.Procs != 2048 {
		t.Errorf("2048@8: layers=%d procs=%d", tr.Layers, tr.Procs)
	}
}

func TestDesignValidation(t *testing.T) {
	if _, err := Design(0, 8); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := Design(100, 7); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := Design(100, 2); err == nil {
		t.Error("radix 2 accepted")
	}
}

func TestDesignCoversQuick(t *testing.T) {
	f := func(pRaw uint16, rIdx uint8) bool {
		p := int(pRaw)%10000 + 1
		radices := []int{4, 8, 16, 32}
		radix := radices[int(rIdx)%len(radices)]
		tr, err := Design(p, radix)
		if err != nil {
			return false
		}
		if tr.Procs < p {
			return false
		}
		// Minimal: one fewer layer must not cover (except L=1 floor).
		if tr.Layers > 1 {
			half := radix / 2
			cap := 2
			for i := 0; i < tr.Layers-1; i++ {
				cap *= half
			}
			if cap >= p {
				return false
			}
		}
		return tr.PortsPerProc() == 1+2*(tr.Layers-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostAndSwitches(t *testing.T) {
	tr, err := Design(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 64 ≤ 2·8² = 128 → L=2, 3 ports/proc over 128 procs capacity.
	if tr.Layers != 2 || tr.Procs != 128 {
		t.Fatalf("unexpected design %+v", tr)
	}
	if tr.TotalPorts() != 128*3 {
		t.Errorf("total ports %d", tr.TotalPorts())
	}
	if tr.Switches() != (128*3+15)/16 {
		t.Errorf("switches %d", tr.Switches())
	}
	if tr.Cost(2) != float64(128*3*2) {
		t.Errorf("cost %g", tr.Cost(2))
	}
}

// TestLayersFor holds Design to the closed form: the smallest L with
// 2·(N/2)^L ≥ procs is ⌈log_{N/2}(procs/2)⌉, and never below one layer.
// 128 at radix 16 sits exactly on a boundary (2·8² = 128).
func TestLayersFor(t *testing.T) {
	for _, tc := range []struct{ procs, radix int }{{2, 4}, {5, 4}, {16, 8}, {64, 16}, {128, 16}, {2048, 16}, {4096, 8}} {
		tr, err := Design(tc.procs, tc.radix)
		if err != nil {
			t.Fatal(err)
		}
		exact := math.Log(float64(tc.procs)/2) / math.Log(float64(tc.radix)/2)
		if want := max(1, int(math.Ceil(exact-1e-9))); tr.Layers != want {
			t.Errorf("Design(%d, %d) has %d layers, want ⌈%.3f⌉ = %d", tc.procs, tc.radix, tr.Layers, exact, want)
		}
	}
}
