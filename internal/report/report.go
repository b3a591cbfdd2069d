// Package report renders the tables, CDF plots, heatmaps, and series the
// benchmark harness and command-line tools print when regenerating the
// paper's figures. Everything is plain text so results diff cleanly.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Table accumulates aligned rows under a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	fmt.Fprintln(w, line(t.header))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

// Bytes formats a byte count compactly (B, K, M).
func Bytes(n int) string {
	switch {
	case n < 0:
		return "-"
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		if n%(1<<10) == 0 {
			return fmt.Sprintf("%dK", n>>10)
		}
		return fmt.Sprintf("%.1fK", float64(n)/1024)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// CDFPlot renders a cumulative distribution as an ASCII curve: one row per
// decade bucket with a bar of the cumulative percentage, mirroring the
// buffer-size CDFs of Figures 3 and 4.
func CDFPlot(w io.Writer, title string, cdf []analysis.CDFPoint, marker int) {
	fmt.Fprintf(w, "%s\n", title)
	if len(cdf) == 0 {
		fmt.Fprintln(w, " (no calls)")
		return
	}
	// Sample the CDF at decade boundaries from 1B to 1MB.
	bounds := []int{1, 10, 100, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 16 << 20}
	pctAt := func(limit int) float64 {
		pct := 0.0
		for _, pt := range cdf {
			if pt.Bytes <= limit {
				pct = pt.Pct
			}
		}
		return pct
	}
	for _, b := range bounds {
		pct := pctAt(b)
		bar := strings.Repeat("#", int(pct/2.5))
		mark := " "
		if marker > 0 && b >= marker && b/10 < marker {
			mark = "*" // the bandwidth-delay product line
		}
		fmt.Fprintf(w, " <=%7s %s %5.1f%% %s\n", Bytes(b), mark, pct, bar)
	}
}

// Heatmap renders a communication-volume matrix as characters of
// increasing intensity, the textual analogue of the paper's per-app
// "volume of communication" plots. Large matrices are downsampled to at
// most cells×cells tiles.
func Heatmap(w io.Writer, title string, g *topology.Graph, cells int) {
	fmt.Fprintf(w, "%s (P=%d)\n", title, g.P)
	if cells <= 0 {
		cells = 32
	}
	n := g.P
	tile := (n + cells - 1) / cells
	tiles := (n + tile - 1) / tile
	sums := make([][]int64, tiles)
	for ti := range sums {
		sums[ti] = make([]int64, tiles)
	}
	// Accumulate tile sums from the sparse adjacency: each rank's partner
	// list contributes to one tile row, so the scan is O(E) not O(P²).
	for i := 0; i < n; i++ {
		for _, e := range g.Adj(i) {
			sums[i/tile][e.To/tile] += e.Vol
		}
	}
	var max int64
	for ti := range sums {
		for tj := range sums[ti] {
			if sums[ti][tj] > max {
				max = sums[ti][tj]
			}
		}
	}
	shades := []byte(" .:-=+*#%@")
	for ti := 0; ti < tiles; ti++ {
		var b strings.Builder
		for tj := 0; tj < tiles; tj++ {
			idx := 0
			if max > 0 && sums[ti][tj] > 0 {
				idx = 1 + int(float64(len(shades)-2)*float64(sums[ti][tj])/float64(max))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteByte(shades[idx])
		}
		fmt.Fprintf(w, " |%s|\n", b.String())
	}
}

// TDCSweep renders a concurrency-with-cutoff series (the right-hand plots
// of Figures 5–10) as a table of cutoff → max/avg degree.
func TDCSweep(w io.Writer, title string, series map[int][]topology.TDCStats) {
	fmt.Fprintf(w, "%s\n", title)
	procs := make([]int, 0, len(series))
	for p := range series {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	header := []string{"cutoff"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("max %d", p), fmt.Sprintf("avg %d", p))
	}
	tbl := NewTable(header...)
	// Series may be ragged (a sweep that failed partway at one scale);
	// render every row any series has and dash out the gaps.
	rows := 0
	for _, s := range series {
		if len(s) > rows {
			rows = len(s)
		}
	}
	for i := 0; i < rows; i++ {
		cutoff := ""
		row := make([]string, 1, 1+2*len(procs))
		for _, p := range procs {
			if i >= len(series[p]) {
				row = append(row, "-", "-")
				continue
			}
			st := series[p][i]
			if cutoff == "" {
				cutoff = Bytes(st.Cutoff)
			}
			row = append(row, fmt.Sprintf("%d", st.Max), fmt.Sprintf("%.1f", st.Avg))
		}
		row[0] = cutoff
		tbl.AddRow(row...)
	}
	tbl.Write(w)
}

// CallMix renders a Figure 2 pie as a ranked list.
func CallMix(w io.Writer, title string, mix []analysis.CallShare) {
	fmt.Fprintf(w, "%s\n", title)
	for _, cs := range mix {
		name := "Other"
		if cs.Call != analysis.OtherCall {
			name = cs.Call.String()
		}
		fmt.Fprintf(w, " %-14s %5.1f%% (%d calls)\n", name, cs.Pct, cs.Count)
	}
}

// SummaryTable renders Table 3 rows. The TDC column is labeled with the
// first row's cutoff (the paper's 2 KB when there are no rows); the rows
// of one table share it.
func SummaryTable(w io.Writer, rows []analysis.Summary) {
	cutoff := topology.DefaultCutoff
	if len(rows) > 0 {
		cutoff = rows[0].Cutoff
	}
	tbl := NewTable("Code", "Procs", "%PTP", "med PTP", "%Col", "med Col",
		"TDC@"+Bytes(cutoff)+"B(max,avg)", "TDC@0(max,avg)", "FCN util")
	for _, s := range rows {
		tbl.AddRow(
			s.App,
			fmt.Sprintf("%d", s.Procs),
			fmt.Sprintf("%.1f", s.PTPCallPct),
			Bytes(s.MedianPTPBuf),
			fmt.Sprintf("%.1f", s.CollCallPct),
			Bytes(s.MedianCollBuf),
			fmt.Sprintf("%d, %.1f", s.TDCMax, s.TDCAvg),
			fmt.Sprintf("%d, %.1f", s.MaxTDC0, s.AvgTDC0),
			fmt.Sprintf("%.0f%%", 100*s.FCNUtil),
		)
	}
	tbl.Write(w)
}
