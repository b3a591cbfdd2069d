package apps

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkProfileRun times the full generate-and-measure loop — run a
// skeleton on the mpi runtime under the IPM collector — in the shapes the
// ledger's provision_cold workload requests: every paper skeleton at P=64
// and cactus/lbmhd/gtc at P=256, default steps. At these sizes a run
// issues 10^4–10^5 requests and opens 10^3–10^5 signatures, which is where
// the request free list and the collector's table show; B/op and
// allocs/op are the headline.
func BenchmarkProfileRun(b *testing.B) {
	type shape struct {
		app   string
		procs int
	}
	var shapes []shape
	for _, in := range Registry {
		shapes = append(shapes, shape{in.Name, 64})
	}
	for _, app := range []string{"cactus", "lbmhd", "gtc"} {
		shapes = append(shapes, shape{app, 256})
	}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			cfg := Config{Procs: sh.procs}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileRun(sh.app, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// profileRunBudget is the ceiling on one ProfileRun at P=64, default
// steps: about 10 % above what the run costs with requests recycled by
// the Wait family, envelopes on the world's free list and signatures held
// in the collector's inline table (paratec: 28.1 MB and 61 k allocations,
// against 110.7 MB and 534 k with a heap request per Isend/Irecv and a
// map[Key]*Stat per rank). A world's schedule is a function of the
// program, so both figures repeat to within a few allocations at any
// GOMAXPROCS (the race detector adds ≈ 250 allocations and 40 KB), and a
// regression in either layer trips this long before a timing benchmark
// could see it.
var profileRunBudget = []struct {
	app        string
	kb, allocs uint64
}{
	{"cactus", 1710, 7400},
	{"lbmhd", 3560, 8150},
	{"gtc", 1700, 24100},
	{"superlu", 8070, 5140},
	{"pmemd", 18460, 19600},
	{"paratec", 30900, 67500},
}

// TestProfileRunAllocBudget holds each skeleton's profile run under its
// allocation ceiling (ROADMAP item 1: a CI gate that does not depend on
// the runner's clock).
func TestProfileRunAllocBudget(t *testing.T) {
	for _, budget := range profileRunBudget {
		t.Run(budget.app, func(t *testing.T) {
			cfg := Config{Procs: 64}
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := ProfileRun(budget.app, cfg); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			kb := (after.TotalAlloc - before.TotalAlloc) / runs / 1024
			allocs := (after.Mallocs - before.Mallocs) / runs
			t.Logf("%d KB, %d allocs per ProfileRun", kb, allocs)
			if kb > budget.kb || allocs > budget.allocs {
				t.Errorf("%s P=64: %d KB and %d allocs per ProfileRun, over the budget of %d KB / %d allocs",
					budget.app, kb, allocs, budget.kb, budget.allocs)
			}
		})
	}
}
