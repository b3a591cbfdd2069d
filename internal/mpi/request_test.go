package mpi

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRequestUseAfterWaitPanics pins the consumed-by-Wait contract: once
// the Wait family has returned a request, every entry point refuses the
// handle with one message until the runtime reissues it.
func TestRequestUseAfterWaitPanics(t *testing.T) {
	consume := map[string]func(c *Comm, r *Request){
		"Wait":    func(c *Comm, r *Request) { c.Wait(r) },
		"Waitall": func(c *Comm, r *Request) { c.Waitall([]*Request{r}) },
		"Waitany": func(c *Comm, r *Request) { c.Waitany([]*Request{r}) },
	}
	reuse := map[string]func(c *Comm, r *Request){
		"Wait":    consume["Wait"], // double Wait
		"Waitall": consume["Waitall"],
		"Waitany": consume["Waitany"],
	}
	for first, use := range consume {
		for second, again := range reuse {
			t.Run(first+"_then_"+second, func(t *testing.T) {
				err := NewWorld(1, WithTimeout(testTimeout)).Run(func(c *Comm) {
					r := c.Isend(0, 1, Size(8))
					use(c, r)
					again(c, r)
				})
				if err == nil || !strings.Contains(err.Error(), "mpi: request used after Wait") {
					t.Fatalf("want the use-after-Wait panic, got %v", err)
				}
			})
		}
	}
}

// haloStep is one ring exchange through a reused request slice.
func haloStep(c *Comm, reqs []*Request, retire func(*Comm, []*Request)) {
	n, me := c.Size(), c.Rank()
	left, right := (me+n-1)%n, (me+1)%n
	reqs[0] = c.Irecv(left, 1)
	reqs[1] = c.Irecv(right, 2)
	reqs[2] = c.Isend(right, 1, Size(8192))
	reqs[3] = c.Isend(left, 2, Size(8192))
	retire(c, reqs)
}

// TestHaloLoopAllocatesNoRequests runs 1 000 halo steps on every rank of
// a ring while rank 0 counts the process's mallocs per step: after the
// first step every Isend/Irecv is served from the rank's free list, and
// retiring through Wait or Waitall allocates nothing at all.
func TestHaloLoopAllocatesNoRequests(t *testing.T) {
	const ranks, steps = 4, 1000
	for _, tc := range []struct {
		name   string
		retire func(*Comm, []*Request)
		max    float64
	}{
		{"Wait", func(c *Comm, reqs []*Request) {
			for _, r := range reqs {
				c.Wait(r)
			}
		}, 0},
		{"Waitall", func(c *Comm, reqs []*Request) { c.Waitall(reqs) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got float64
			run(t, ranks, func(c *Comm) {
				reqs := make([]*Request, 4)
				haloStep(c, reqs, tc.retire)
				c.Barrier()
				if c.Rank() != 0 {
					for i := 0; i < steps+1; i++ { // AllocsPerRun warms up with one extra call
						haloStep(c, reqs, tc.retire)
					}
					return
				}
				got = testing.AllocsPerRun(steps, func() { haloStep(c, reqs, tc.retire) })
			})
			if got > tc.max {
				t.Errorf("%v allocations per halo step across %d ranks, want at most %v", got, ranks, tc.max)
			}
		})
	}
}

// TestWaitallOnSplitMatchesEachMessage retires three requests in one
// Waitall on a sub-communicator whose ranks run opposite to the world's:
// a named receive, an AnySource receive matched by a rendezvous send, and
// a rendezvous send of its own. Each receive matched the message meant for
// it — sender, tag and a size that says which message it is — and the
// rendezvous send reached its receiver whole. Waitall(nil) returns at once.
func TestWaitallOnSplitMatchesEachMessage(t *testing.T) {
	w := NewWorld(3, WithTimeout(testTimeout), WithEagerLimit(4))
	err := w.Run(func(world *Comm) {
		c := world.Split(0, -world.Rank()) // comm rank = 2 - world rank
		switch c.Rank() {
		case 0:
			reqs := []*Request{
				c.Irecv(1, 5),
				c.Irecv(AnySource, 6),
				c.Isend(1, 7, Size(10)),
			}
			c.Waitall(reqs)
			for i, want := range []matched{
				{Source: c.WorldRank(1), Tag: 5, N: 3},
				{Source: c.WorldRank(2), Tag: 6, N: 5},
			} {
				if m := reqs[i].matched(); m != want {
					panic(fmt.Sprintf("receive %d matched %+v, want %+v", i, m, want))
				}
			}
			c.Waitall(nil)
		case 1:
			c.Send(0, 5, Size(3)) // eager
			c.Recv(0, 7)
			if m := c.lastMatch(); m.Source != c.WorldRank(0) || m.N != 10 {
				panic(fmt.Sprintf("rendezvous message %+v, want 10 bytes from world rank %d", m, c.WorldRank(0)))
			}
		case 2:
			c.Send(0, 6, Size(5)) // rendezvous: waits for the AnySource receive
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitanyAllCompleteAllocatesNothing drains a list of already-complete
// requests with Waitany, PMEMD's retire loop: no channel, no subscriber
// slice, no request.
func TestWaitanyAllCompleteAllocatesNothing(t *testing.T) {
	var got float64
	run(t, 1, func(c *Comm) {
		reqs := make([]*Request, 0, 16)
		got = testing.AllocsPerRun(200, func() {
			for i := 0; i < 8; i++ {
				reqs = append(reqs, c.Isend(0, Tag(i), Size(64)))
			}
			for i := 0; i < 8; i++ {
				reqs = append(reqs, c.Irecv(0, Tag(i)))
			}
			for len(reqs) > 0 {
				i := c.Waitany(reqs)
				reqs[i] = reqs[len(reqs)-1]
				reqs = reqs[:len(reqs)-1]
			}
		})
	})
	if got != 0 {
		t.Errorf("%v allocations per 16-request Waitany drain, want 0", got)
	}
}

// freeListLen counts the rank's released handles.
func freeListLen(c *Comm) int {
	n := 0
	for r := c.rs.free; r != nil; r = r.next {
		n++
	}
	return n
}

// TestRendezvousRequestsRecycle sends every message above the eager limit,
// so each Isend's request is completed by the receiving rank's match — not
// by the owner — and the handle is reissued right after. A message's size
// names the step and the sender, so a completion or a match landing on
// the wrong incarnation of a handle shows up as a wrong size.
func TestRendezvousRequestsRecycle(t *testing.T) {
	const steps = 300
	w := NewWorld(2, WithTimeout(testTimeout), WithEagerLimit(4))
	err := w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		sub := c.Split(0, c.Rank()) // the free list belongs to the rank, not the comm
		for s := 0; s < steps; s++ {
			rr := c.Irecv(peer, 1)
			sr := sub.Isend(peer, 2, Size(8+2*s+c.Rank()))
			sr2 := c.Isend(peer, 1, Size(8+2*s+c.Rank()))
			rr2 := sub.Irecv(peer, 2)
			c.Wait(rr)
			sub.Wait(rr2)
			for _, r := range []*Request{rr, rr2} {
				if n := r.matched().N; n != 8+2*s+peer {
					panic(fmt.Sprintf("step %d: a %d-byte message, want %d", s, n, 8+2*s+peer))
				}
			}
			c.Waitall([]*Request{sr, sr2})
		}
		if n := freeListLen(c); n != 4 {
			panic(fmt.Sprintf("free list holds %d handles after %d steps of four requests, want 4", n, steps))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidWaitanyUnwindsEveryRank blocks every rank in Waitany over a
// receive nobody sends and a rendezvous send nobody matches — the last
// rank to get there cancels the context on its way in, one rank running
// at a time — and requires RunContext to return context.Canceled, not the
// deadlock the world is also in, with every rank's coroutine gone.
func TestCancelMidWaitanyUnwindsEveryRank(t *testing.T) {
	before := runtime.NumGoroutine()
	const ranks = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arrived := 0
	w := NewWorld(ranks, WithEagerLimit(4))
	err := w.RunContext(ctx, func(c *Comm) {
		peer := (c.Rank() + 1) % ranks
		reqs := []*Request{c.Irecv(peer, 7), c.Isend(peer, 9, Size(1024))}
		if arrived++; arrived == ranks {
			cancel()
		}
		c.Waitany(reqs)
		panic("Waitany returned with nothing complete")
	})
	if err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after cancel:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
