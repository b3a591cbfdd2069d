package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// readLedger loads the untraced records of a ledger file, grouped by
// workload.
func readLedger(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], &rec)
		}
	}
	return out, sc.Err()
}

// spread is the run-to-run spread of a metric as a share of its median:
// the interquartile distance with four or more runs, the range below.
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method), which is what the driver judges spreads with.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(len(sorted)-1) {
		return sorted[len(sorted)-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// compareLedgers prints, per workload × end-to-end metric, both medians,
// the relative change, and a verdict against the metric's bound:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is
//	unresolved  a side's own spread is wider than the bound, and b's runs
//	            do not all read better than a's
//
// It reports whether anything regressed.
func compareLedgers(w io.Writer, pathA, pathB string) (bool, error) {
	man, err := readManifest()
	if err != nil {
		return false, err
	}
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound", "verdict")
	for _, wl := range man.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s missing from a ledger (a: %d runs, b: %d runs)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, rec := range append(append([]*record(nil), ra...), rb...) {
			if !rec.Correct {
				fmt.Fprintf(w, "%-16s a run (seed %d) failed its output checks: %v\n", wl.Name, rec.Seed, rec.Errors)
				regressed = true
			}
			if rec.Env.Noisy {
				fmt.Fprintf(w, "%-16s a run (seed %d) started on a busy box: load %.2f on %d cpus\n", wl.Name, rec.Seed, rec.Env.Load1, rec.Env.CPUs)
			}
		}
		for _, met := range man.EndToEnd {
			va, vb := valuesOf(ra, met.Name), valuesOf(rb, met.Name)
			ma, mb := median(va), median(vb)
			// worse is the change in the direction that hurts, as a share
			// of a's median.
			worse := (mb - ma) / ma
			allBetter := slices.Min(va) > slices.Max(vb)
			if met.Better == "higher" {
				worse = -worse
				allBetter = slices.Max(va) < slices.Min(vb)
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > met.Bound && !allBetter:
				verdict = "unresolved"
			case worse > met.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				wl.Name, met.Name, ma, mb, 100*(mb-ma)/ma, 100*sp, 100*met.Bound, verdict, len(va), len(vb))
		}
	}
	return regressed, nil
}

func valuesOf(recs []*record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}
