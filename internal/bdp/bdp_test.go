package bdp

import (
	"math"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	if len(Table1) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(Table1))
	}
	for _, ic := range Table1 {
		want, ok := PaperProductsKB[ic.System]
		if !ok {
			t.Errorf("no paper value for %q", ic.System)
			continue
		}
		got := ic.ProductKB()
		// The paper rounds to 2 significant figures; allow 10%.
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s: computed %.2f KB, paper says %.1f KB", ic.System, got, want)
		}
	}
}

func TestProductArithmetic(t *testing.T) {
	ic := Interconnect{System: "x", Technology: "y", LatencyUS: 2, BandwidthMBs: 1000}
	if p := ic.Product(); p != 2000 {
		t.Errorf("product %g, want 2000 bytes", p)
	}
}

func TestBestProductNearTarget(t *testing.T) {
	best := BestProduct()
	// The paper picks 2 KB because the best product "hovers close to
	// 2 KB" (the Altix at ~2.1 KB).
	if best < 1500 || best > 2500 {
		t.Errorf("best product %.0f bytes, expected ≈2 KB", best)
	}
	if TargetThreshold != 2048 {
		t.Errorf("threshold %d, want 2048", TargetThreshold)
	}
}

func TestString(t *testing.T) {
	s := Table1[0].String()
	if !strings.Contains(s, "SGI Altix") || !strings.Contains(s, "KB") {
		t.Errorf("row formatting: %q", s)
	}
}
