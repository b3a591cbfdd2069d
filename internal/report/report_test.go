package report

import (
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/topology"
)

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("A", "LongHeader", "C")
	tbl.AddRow("x", "1", "2")
	tbl.AddRow("longer-cell", "3") // short row padded
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A ") || !strings.Contains(lines[0], "LongHeader") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator wrong: %q", lines[1])
	}
	// Column starts align between header and rows.
	idx := strings.Index(lines[0], "LongHeader")
	if lines[2][idx] != '1' {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int]string{
		-1:        "-",
		0:         "0",
		512:       "512",
		1024:      "1K",
		1536:      "1.5K",
		131072:    "128K",
		1 << 20:   "1M",
		3 << 20:   "3M",
		2<<20 + 1: "2048.0K",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestCDFPlot(t *testing.T) {
	var b strings.Builder
	cdf := []analysis.CDFPoint{{Bytes: 8, Pct: 50}, {Bytes: 4096, Pct: 100}}
	CDFPlot(&b, "test cdf", cdf, 2048)
	out := b.String()
	if !strings.Contains(out, "test cdf") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "100.0%") {
		t.Errorf("missing percentages:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("missing threshold marker:\n%s", out)
	}
	var empty strings.Builder
	CDFPlot(&empty, "none", nil, 0)
	if !strings.Contains(empty.String(), "no calls") {
		t.Error("empty CDF not flagged")
	}
}

func TestHeatmap(t *testing.T) {
	g := topology.MustGraph(8)
	g.AddTraffic(0, 1, 1, 1<<20, 1<<20)
	g.AddTraffic(6, 7, 1, 1<<10, 1<<10)
	var b strings.Builder
	Heatmap(&b, "hm", g, 8)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Fatalf("heatmap rows %d:\n%s", len(lines), out)
	}
	// Heaviest cell uses the darkest shade.
	if !strings.Contains(out, "@") {
		t.Errorf("heaviest shade missing:\n%s", out)
	}
	// Symmetry: cell (0,1) and cell (1,0) both lit. Matrix column c is at
	// string index 2+c (" |" prefix).
	if lines[1][2+1] == ' ' || lines[2][2+0] == ' ' {
		t.Errorf("symmetric cells not lit:\n%s", out)
	}
}

func TestHeatmapDownsamples(t *testing.T) {
	g := topology.MustGraph(100)
	g.AddTraffic(0, 99, 1, 1<<20, 1<<20)
	var b strings.Builder
	Heatmap(&b, "big", g, 10)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("downsampled heatmap rows %d, want 11", len(lines))
	}
}

func TestTDCSweep(t *testing.T) {
	series := map[int][]topology.TDCStats{
		64:  {{Cutoff: 0, Max: 6, Avg: 5}, {Cutoff: 2048, Max: 6, Avg: 5}},
		256: {{Cutoff: 0, Max: 6, Avg: 5.5}, {Cutoff: 2048, Max: 6, Avg: 5.5}},
	}
	var b strings.Builder
	TDCSweep(&b, "sweep", series)
	out := b.String()
	for _, want := range []string{"max 64", "avg 64", "max 256", "avg 256", "2K", "5.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep missing %q:\n%s", want, out)
		}
	}
}

// TestTDCSweepRagged covers series of unequal length: a sweep that failed
// partway at one scale must render dashes, not panic.
func TestTDCSweepRagged(t *testing.T) {
	series := map[int][]topology.TDCStats{
		64:  {{Cutoff: 0, Max: 6, Avg: 5}, {Cutoff: 2048, Max: 6, Avg: 5}},
		256: {{Cutoff: 0, Max: 8, Avg: 7}},
	}
	var b strings.Builder
	TDCSweep(&b, "ragged", series)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 data rows
		t.Fatalf("ragged sweep rows %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "-") {
		t.Errorf("missing row not dashed out:\n%s", out)
	}
}

// TestRenderByteStable guards the determinism the HTTP text endpoints and
// CLI output rely on: re-rendering the same inputs must be byte-identical
// (map-keyed series are sorted before iteration).
func TestRenderByteStable(t *testing.T) {
	series := map[int][]topology.TDCStats{
		256: {{Cutoff: 0, Max: 8, Avg: 7}, {Cutoff: 2048, Max: 6, Avg: 5.5}},
		64:  {{Cutoff: 0, Max: 6, Avg: 5}, {Cutoff: 2048, Max: 6, Avg: 5}},
		128: {{Cutoff: 0, Max: 7, Avg: 6}, {Cutoff: 2048, Max: 6, Avg: 5.2}},
	}
	g := topology.MustGraph(16)
	g.AddTraffic(0, 1, 1, 1<<20, 1<<20)
	g.AddTraffic(9, 14, 3, 1<<12, 1<<12)
	render := func() string {
		var b strings.Builder
		TDCSweep(&b, "stable", series)
		Heatmap(&b, "hm", g, 8)
		return b.String()
	}
	first := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from first:\n--- first ---\n%s--- got ---\n%s", i, first, got)
		}
	}
}

func TestCallMixRender(t *testing.T) {
	var b strings.Builder
	CallMix(&b, "mix", []analysis.CallShare{
		{Call: 2, Count: 10, Pct: 90}, // CallIsend
		{Call: analysis.OtherCall, Count: 1, Pct: 10},
	})
	out := b.String()
	if !strings.Contains(out, "MPI_Isend") || !strings.Contains(out, "Other") {
		t.Errorf("call mix render:\n%s", out)
	}
}

func TestSummaryTableRender(t *testing.T) {
	var b strings.Builder
	row := analysis.Summary{
		App: "gtc", Procs: 256, PTPCallPct: 40.2, CollCallPct: 59.8,
		MedianPTPBuf: 131072, MedianCollBuf: 100, Cutoff: 2048,
		TDCMax: 10, TDCAvg: 4, MaxTDC0: 17, AvgTDC0: 7, FCNUtil: 0.02,
	}
	SummaryTable(&b, []analysis.Summary{row})
	out := b.String()
	for _, want := range []string{"TDC@2KB(max,avg)", "gtc", "256", "40.2", "128K", "10, 4.0", "2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The TDC column names the cutoff its values were computed at.
	b.Reset()
	row.Cutoff = 400000
	SummaryTable(&b, []analysis.Summary{row})
	if out := b.String(); !strings.Contains(out, "TDC@390.6KB(max,avg)") {
		t.Errorf("summary at a 400000 B cutoff is not labeled TDC@390.6KB:\n%s", out)
	}
}
