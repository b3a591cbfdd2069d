package apps

import (
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/meshtorus"
)

// TestTorusDistance: pmemd's domain distance, meshtorus.Baseline(p).Distance,
// is the wrapped L1 distance between the ranks' cells of NearCube's
// periodic grid, first extent fastest, for every pair.
func TestTorusDistance(t *testing.T) {
	for _, p := range []int{13, 48, 64} {
		torus, err := meshtorus.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		extents := meshtorus.NearCube(p, 3)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				want, ra, rb := 0, a, b
				for _, e := range extents {
					d := ra%e - rb%e
					ra, rb = ra/e, rb/e
					d = max(d, -d)
					want += min(d, e-d)
				}
				if got := torus.Distance(a, b); got != want {
					t.Fatalf("P=%d: Distance(%d, %d) = %d, want %d", p, a, b, got, want)
				}
			}
		}
	}
	// 4×4×4: (0,0,0) to (3,3,3), rank 63, wraps to 1+1+1.
	torus, _ := meshtorus.Baseline(64)
	if d := torus.Distance(0, 63); d != 3 {
		t.Errorf("wrap distance %d, want 3", d)
	}
}

func TestHashDeterminism(t *testing.T) {
	a := hashFloat(1, 2, 3)
	b := hashFloat(1, 2, 3)
	if a != b {
		t.Error("hashFloat not deterministic")
	}
	if a < 0 || a >= 1 {
		t.Errorf("hashFloat out of range: %g", a)
	}
	if hashFloat(1, 2, 3) == hashFloat(1, 2, 4) {
		t.Error("hashFloat collision on trivially different keys")
	}
}

func TestHashRangeQuick(t *testing.T) {
	f := func(lo uint8, span uint8, k uint64) bool {
		l := int(lo)
		h := l + int(span)
		v := hashRange(l, h, k)
		if h == l {
			return v == l
		}
		return v >= l && v < h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGTCDecompose(t *testing.T) {
	l := gtcDecompose(0, 64, 64)
	if l.ntor != 64 || l.m != 1 {
		t.Errorf("P=64: ntor=%d m=%d, want 64,1", l.ntor, l.m)
	}
	l = gtcDecompose(255, 256, 64)
	if l.ntor != 64 || l.m != 4 || l.t != 63 || l.p != 3 {
		t.Errorf("P=256 rank 255: %+v", l)
	}
	// Ring wrap.
	if r := l.rank(64, 0); r != 0 {
		t.Errorf("rank(64,0) = %d, want 0", r)
	}
	if r := l.rank(-1, 2); r != 63*4+2 {
		t.Errorf("rank(-1,2) = %d, want %d", r, 63*4+2)
	}
	// Non-power-of-two P: largest divisor ≤ 64.
	l = gtcDecompose(0, 96, 64)
	if l.ntor != 48 || l.m != 2 {
		t.Errorf("P=96: ntor=%d m=%d, want 48,2", l.ntor, l.m)
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("registry size %d", len(names))
	}
	for _, n := range names {
		in, err := Lookup(n)
		if err != nil || in.Name != n || in.Run == nil {
			t.Errorf("lookup %q: %+v %v", n, in, err)
		}
	}
	if _, err := Lookup("nonesuch"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(42)
	if cfg.Steps != 8 || cfg.Scale != 42 {
		t.Errorf("defaults: %+v", cfg)
	}
	cfg = Config{Steps: 3, Scale: 7}.withDefaults(42)
	if cfg.Steps != 3 || cfg.Scale != 7 {
		t.Errorf("explicit values overridden: %+v", cfg)
	}
}

func TestStepRegionFormat(t *testing.T) {
	if stepRegion(3) != "step003" || stepRegion(1042) != "step1042" {
		t.Error("region naming changed; trace windows depend on it")
	}
}
