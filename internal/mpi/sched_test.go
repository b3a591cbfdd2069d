package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitForGoroutines fails the test unless the goroutine count comes back
// down to before: every rank coroutine of a finished world has exited.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestRankPanicNamesRankAndUnwinds: a rank that panics mid-run — its peers
// parked on traffic it will now never send — yields an error naming that
// rank, the panic value and the stack it panicked on; every other rank is
// unwound (its deferred calls run) and no coroutine is left behind.
func TestRankPanicNamesRankAndUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	const ranks = 6
	unwound := 0
	err := NewWorld(ranks, WithTimeout(testTimeout)).Run(func(c *Comm) {
		defer func() { unwound++ }()
		c.Barrier()
		if c.Rank() == 3 {
			explode()
		}
		c.Recv(3, 1)
	})
	if err == nil {
		t.Fatal("expected an error from the panicking rank")
	}
	for _, want := range []string{"mpi: rank 3 panicked: kaboom", "mpi.explode"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q:\n%v", want, err)
		}
	}
	if unwound != ranks {
		t.Errorf("%d of %d ranks ran their deferred calls", unwound, ranks)
	}
	waitForGoroutines(t, before)
}

func explode() { panic("kaboom") }

// TestAnySourceTakesEarliestArrival pins the wildcard rule. Ranks 1–3 run
// in rank order, so their messages queue at rank 0 in rank order, but each
// has first pushed its clock ahead — rank 1 furthest — so the modeled
// arrivals are in the opposite order. Each sends a large message and then a
// tiny one by Isend, so the second is modeled to arrive before the first.
// Recv(AnySource) takes the earliest arrival among each source's oldest
// message: sources in reverse, never the tiny message before the large one
// of the same source. Without a cost model every arrival is 0 and the rule
// is queue order. Every rank sends before it enters the Barrier, so rank 0
// finds all six messages queued when it leaves.
func TestAnySourceTakesEarliestArrival(t *testing.T) {
	const large = 100_000
	for _, tc := range []struct {
		name string
		opts []Option
		want []int
	}{
		{"cost model", []Option{WithCostModel(DefaultCostModel())}, []int{large + 3, 3, large + 2, 2, large + 1, 1}},
		{"no cost model", nil, []int{large + 1, 1, large + 2, 2, large + 3, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []int
			w := NewWorld(4, append(tc.opts, WithTimeout(testTimeout))...)
			err := w.Run(func(c *Comm) {
				me := c.Rank()
				if me == 0 {
					c.Barrier()
					for range tc.want {
						c.Recv(AnySource, 1)
						got = append(got, c.lastMatch().N)
					}
					return
				}
				c.Send(me, 2, Size((4-me)<<20)) // a blocking send charges its transfer: 3, 2, 1 ms
				c.Recv(me, 2)
				c.Wait(c.Isend(0, 1, Size(large+me)))
				c.Wait(c.Isend(0, 1, Size(me)))
				c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("Recv(AnySource) took sizes %v, want %v", got, tc.want)
			}
		})
	}
}
