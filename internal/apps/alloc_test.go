package apps

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// runBudgetKB is what one untraced world of each provision_cold shape may
// allocate, in KB: the mpi runtime's own bytes (handles, envelopes,
// mailboxes, coroutines, communicators) with no collector installed. Each
// ceiling is 1.1× the bytes measured when it was set (Go 1.24, linux/amd64),
// when a receive stopped returning a status.
var runBudgetKB = []struct {
	app   string
	procs int
	kb    uint64
}{
	{"cactus", 64, 185},
	{"lbmhd", 64, 95},
	{"gtc", 64, 167},
	{"superlu", 64, 82},
	{"pmemd", 64, 1370},
	{"paratec", 64, 4063},
	{"cactus", 256, 747},
	{"lbmhd", 256, 380},
	{"gtc", 256, 643},
}

// TestRunAllocBudget holds each untraced world of provision_cold's nine
// shapes to a committed byte ceiling: a clock-free gate on what the
// runtime allocates per run. A world's schedule is a function of the
// program, so its byte count repeats; the test holds still what could
// move it anyway (one P, no collection, no race detector) and measures the
// second run of each shape.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sh := range runBudgetKB {
		t.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(t *testing.T) {
			in, err := Lookup(sh.app)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Procs: sh.procs}
			var got uint64
			for i := 0; i < 2; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				w := mpi.NewWorld(cfg.Procs, mpi.WithCostModel(mpi.DefaultCostModel()))
				if err := w.Run(func(c *mpi.Comm) { in.Run(c, cfg) }); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				got = after.TotalAlloc - before.TotalAlloc
			}
			t.Logf("%d KB untraced (ceiling %d KB)", got/1024, sh.kb)
			if got > sh.kb*1024 {
				t.Errorf("%s P=%d: an untraced world allocates %d KB, over its %d KB ceiling", sh.app, sh.procs, got/1024, sh.kb)
			}
		})
	}
}
