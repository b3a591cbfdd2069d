package ipm_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// cancelAfter is rank 0's tracer in a world that is to die mid-run: it
// cancels the run's context at its n-th event.
type cancelAfter struct {
	mpi.Tracer
	n      *int
	cancel context.CancelFunc
}

func (c cancelAfter) Event(e mpi.Event) {
	if *c.n--; *c.n == 0 {
		c.cancel()
	}
	c.Tracer.Event(e)
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// profileOf runs a skeleton under a CollectorSet of the given capacity.
// With cancelAt > 0 the world is cancelled at rank 0's cancelAt-th event,
// Profile is never called and nil is returned.
func profileOf(t *testing.T, app string, cfg apps.Config, capacity, cancelAt int) *ipm.Profile {
	t.Helper()
	info, err := apps.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set := ipm.NewCollectorSet(capacity)
	w := mpi.NewWorld(cfg.Procs, mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(func(rank int) mpi.Tracer {
			tr := set.Factory(rank)
			if rank == 0 && cancelAt > 0 {
				tr = cancelAfter{tr, &cancelAt, cancel}
			}
			return tr
		}))
	cancelled := cancelAt > 0
	switch err := w.RunContext(ctx, func(c *mpi.Comm) { info.Run(c, cfg) }); {
	case cancelled && errors.Is(err, context.Canceled):
		return nil
	case cancelled || err != nil:
		t.Fatalf("%s: world (to be cancelled: %v) returned %v", app, cancelled, err)
	}
	return set.Profile(app, cfg.Procs, nil)
}

// TestScratchReuseLeaksNothing: a world that takes over a finished
// world's tables must profile exactly as one in a process that has
// profiled nothing — no region name, capacity, clock or spill count left
// behind. The first world is large, region-rich and at the default
// capacity; the second is small and at a capacity it overflows, so either
// side leaking into the other moves the profile. A world cancelled mid-run
// (Profile never called) must not poison the next either.
func TestScratchReuseLeaksNothing(t *testing.T) {
	// One P, so that what a world puts into the sync.Pool is what the next
	// gets (a lone Put parks where only its own P looks), and no collection,
	// as in apps' TestProfileRunAllocBudget: two GC cycles between a world's
	// Put and the check's Get empty the pool, which read as "the pool holds 0
	// collectors" about once in 20 runs of the package.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	big, small := apps.Config{Procs: 64, Steps: 8}, apps.Config{Procs: 16, Steps: 2}
	const smallCap = 12

	ipm.ResetScratchPool()
	wantSmall := profileOf(t, "cactus", small, smallCap, 0)
	if wantSmall.Ranks[0].Spilled == 0 {
		t.Fatalf("cactus P=%d does not overflow capacity %d: the test no longer tells a leaked capacity", small.Procs, smallCap)
	}
	ipm.ResetScratchPool()
	wantBig := profileOf(t, "paratec", big, 0, 0)

	// pooled checks what the world that just finished left in the pool. Under
	// the race detector a sync.Pool drops one Put in four.
	pooled := func(round int, after string, ranks int) {
		t.Helper()
		if n, leak := ipm.PooledScratch(); leak != "" || n < ranks && !raceEnabled {
			t.Fatalf("round %d: after %s the pool holds %d collectors, want %d; leak: %s", round, after, n, ranks, leak)
		}
	}
	ipm.ResetScratchPool()
	for round := 0; round < 2; round++ {
		if got := profileOf(t, "paratec", big, 0, 0); !reflect.DeepEqual(got, wantBig) {
			t.Fatalf("round %d: paratec profile differs from the fresh-state one", round)
		}
		pooled(round, "paratec", big.Procs)
		if got := profileOf(t, "cactus", small, smallCap, 0); !reflect.DeepEqual(got, wantSmall) {
			t.Fatalf("round %d: cactus after paratec differs from the fresh-state profile", round)
		}
		pooled(round, "cactus", big.Procs-small.Procs) // a table that overflowed is not recycled
		profileOf(t, "paratec", big, 0, 5000)          // dies holding the pool's scratch
		if got := profileOf(t, "cactus", small, smallCap, 0); !reflect.DeepEqual(got, wantSmall) {
			t.Fatalf("round %d: cactus after a cancelled paratec differs from the fresh-state profile", round)
		}
		pooled(round, "cactus on a new scratch", 0)
	}
}
