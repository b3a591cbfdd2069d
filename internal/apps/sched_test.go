package apps

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// countingTracer increments a counter shared by every rank of the world,
// with no synchronisation, and one of its own.
type countingTracer struct {
	shared *int
	own    int
}

func (c *countingTracer) Event(mpi.Event) { *c.shared++; c.own++ }

// TestWorldIsSingleThreaded runs cactus at P=64 with every rank's tracer
// bumping one plain int. The ranks are coroutines resumed one at a time, so
// no increment is lost — and under -race the detector is the assertion: two
// ranks of one world running concurrently, or a switch without a
// happens-before edge, is a reported race on that int.
func TestWorldIsSingleThreaded(t *testing.T) {
	const procs = 64
	info, err := Lookup("cactus")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	tracers := make([]*countingTracer, procs)
	w := mpi.NewWorld(procs,
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(func(rank int) mpi.Tracer {
			tracers[rank] = &countingTracer{shared: &total}
			return tracers[rank]
		}))
	if err := w.Run(func(c *mpi.Comm) { info.Run(c, Config{Procs: procs}) }); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, tr := range tracers {
		sum += tr.own
	}
	if total == 0 || total != sum {
		t.Errorf("shared counter reads %d after %d events", total, sum)
	}
}

// TestCancelMidProfileLeavesNoGoroutine cancels the largest standard run
// 5 ms in, twenty times: ProfileRunContext returns context.Canceled and
// every rank coroutine — parked, runnable or never started — is gone.
func TestCancelMidProfileLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		_, err := ProfileRunContext(ctx, "paratec", Config{Procs: 256})
		timer.Stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: ProfileRunContext = %v, want context.Canceled", i, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("run %d: %d goroutines before, %d after:\n%s", i, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			runtime.Gosched()
		}
	}
}
