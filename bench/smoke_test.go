package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/netsim_golden.json from this commit's simulator (runs every timed size)")

// TestSmoke runs every workload and its traced pass at the smoke budget
// — one small cycle each — and holds the harness to BENCHMARK.json:
// exactly the declared names come out, finite and with their units, and
// every output oracle passes.
func TestSmoke(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, harness default %d", man.RunSeconds, defaultSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := map[bool]map[string]string{false: {}, true: {}}
	seen := map[string]bool{}
	declare := func(traced bool, n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
		declared[traced][n] = u
	}
	for _, m := range man.EndToEnd {
		declare(false, m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range man.PerLayer {
		declare(true, m.Name, m.Unit)
	}
	// Every workload BENCHMARK.json gates must exist here; the harness
	// may run more (peer_fill is run but not gated).
	for _, w := range man.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("BENCHMARK.json workload %q: not a workload of the harness, or not a valid name", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1–200", w.Name, len(w.Why))
		}
	}

	outdir := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(wl, options{seed: 1, seconds: 0, trace: traced, smoke: true, outdir: outdir})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", wl.name, traced, err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s (trace=%v): %d of %d failed: %v", wl.name, traced, rec.Failed, rec.Attempted, rec.Errors)
			}
			var got, want []string
			for n, v := range rec.Metrics {
				got = append(got, n)
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", wl.name, n, v.Value)
				}
				if u, ok := declared[traced][n]; ok && u != v.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", wl.name, n, v.Unit, u)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, n)
				}
			}
			for n := range declared[traced] {
				want = append(want, n)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s (trace=%v): emitted metrics differ from BENCHMARK.json:\n got %v\nwant %v", wl.name, traced, got, want)
			}
			if traced {
				if _, err := os.Stat(outdir + "/trace-" + wl.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", wl.name, err)
				}
			}
		}
	}
}

// TestCompareVerdicts pins -compare's three verdicts on synthetic
// ledgers.
func TestCompareVerdicts(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(file string, scale func(metric string, run int) float64) string {
		path := dir + "/" + file
		for run := 0; run < 3; run++ {
			for _, wl := range man.Workloads {
				rec := &record{Workload: wl.Name, Correct: true, Attempted: 1, Metrics: map[string]value{}}
				for _, m := range man.EndToEnd {
					rec.Metrics[m.Name] = value{100 * scale(m.Name, run), m.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("a.json", func(string, int) float64 { return 1 })
	same := write("b.json", func(string, int) float64 { return 1.01 })
	slow := write("c.json", func(m string, _ int) float64 {
		if m == "cpu_ms_per_op" {
			return 1.5
		}
		return 1
	})
	noisy := write("d.json", func(m string, run int) float64 {
		if m == "cpu_ms_per_op" {
			return 1 + 0.4*float64(run)
		}
		return 1
	})
	for _, tc := range []struct {
		b         string
		regressed bool
	}{{same, false}, {slow, true}, {noisy, false}} {
		devnull, err := os.Create(os.DevNull)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compareLedgers(devnull, base, tc.b)
		devnull.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.regressed {
			t.Errorf("compare %s: regressed=%v, want %v", tc.b, got, tc.regressed)
		}
	}
}

// TestNetsimGolden regenerates the golden file under -update; without
// it the smoke run above already checks the smallest size.
func TestNetsimGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate " + goldenPath)
	}
	configs, err := buildConfigs(netsimSizes, func(string, int, float64) {})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]replayGolden{}
	for _, c := range configs {
		res, err := simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		golden[c.key()] = goldenOf(res)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
