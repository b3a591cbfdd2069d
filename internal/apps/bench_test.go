package apps

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/hfast-sim/hfast/internal/mpi"
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

// raceEnabled is set by race_test.go.
var raceEnabled bool

// profileEntryBudget is what the collection layer may allocate per profile
// entry, on top of what the same run allocates with no tracer installed:
// an Entry is 72 bytes and is written once, into the profile's one block,
// and the tables, index and sort buffers come from the previous world.
const profileEntryBudget = 100

// TestProfileRunAllocBudget holds each skeleton's profile run, at P=64 and
// default steps, to the untraced run's bytes plus profileEntryBudget per
// entry (ROADMAP item 1: a CI gate that does not depend on the runner's
// clock). A world's schedule is a function of the program, so both sides
// repeat to within a few allocations. The pool is a sync.Pool, so the test
// holds still what makes one miss: no collection (it empties the pool), one
// P (a Put parks the scratch where only its own P looks first), no race
// detector (under it a Put is dropped one time in four).
func TestProfileRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, in := range Registry {
		t.Run(in.Name, func(t *testing.T) {
			cfg := Config{Procs: 64}
			warm, err := ProfileRun(in.Name, cfg) // leaves its tables in the pool
			if err != nil {
				t.Fatal(err)
			}
			entries := uint64(0)
			for _, rp := range warm.Ranks {
				entries += uint64(len(rp.Entries))
			}
			untraced := allocated(func() error {
				w := mpi.NewWorld(cfg.Procs, mpi.WithCostModel(mpi.DefaultCostModel()))
				return w.Run(func(c *mpi.Comm) { in.Run(c, cfg) })
			})
			traced := allocated(func() error {
				_, err := ProfileRunContext(context.Background(), in.Name, cfg)
				return err
			})
			t.Logf("%d KB untraced, %d KB profiled, %d entries: %.1f B per entry",
				untraced/1024, traced/1024, entries, float64(traced-untraced)/float64(entries))
			if traced > untraced+profileEntryBudget*entries {
				t.Errorf("%s P=64: profiling allocates %d B over the untraced run's %d B, more than %d B for each of %d entries",
					in.Name, traced-untraced, untraced, profileEntryBudget, entries)
			}
		})
	}
}
