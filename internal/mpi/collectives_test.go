package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// worldSizes covers power-of-two and awkward sizes for tree algorithms.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31}

func forSizes(t *testing.T, fn func(t *testing.T, p int)) {
	t.Helper()
	for _, p := range worldSizes {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			t.Parallel()
			fn(t, p)
		})
	}
}

func TestBarrierAllSizes(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
	})
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			for root := 0; root < c.Size(); root++ {
				var b Buf
				if c.Rank() == root {
					b = Size(100 + root)
				}
				c.Bcast(root, &b)
				if b.N != 100+root {
					panic(fmt.Sprintf("rank %d: bcast root %d: got %d bytes want %d", c.Rank(), root, b.N, 100+root))
				}
			}
		})
	})
}

// TestCollectivesReleaseAtLastArrival holds the release rule without a
// clock: no member that waits leaves a collective before the last one has
// entered it. Every member waits, except in Gather, where only the root
// does. The ranks enter one by one, each after a receive from the rank
// before it in a chain, first in rank order and then in reverse, and log
// entering and leaving, one log per round; a world runs one rank at a
// time, so each log is in world order.
func TestCollectivesReleaseAtLastArrival(t *testing.T) {
	everyone := func(int) bool { return true }
	collectives := []struct {
		name  string
		call  func(c *Comm)
		waits func(rank int) bool
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }, everyone},
		{"Bcast", func(c *Comm) { b := Size(8); c.Bcast(c.Size()/2, &b) }, everyone},
		{"Allreduce", func(c *Comm) { c.Allreduce(Size(8)) }, everyone},
		{"Gather", func(c *Comm) { c.Gather(0, Size(8)) }, func(rank int) bool { return rank == 0 }},
		{"Split", func(c *Comm) { c.Split(0, c.Rank()) }, everyone},
	}
	type event struct {
		rank  int
		leave bool
	}
	for _, coll := range collectives {
		for _, p := range []int{1, 2, 3, 13, 16} {
			t.Run(fmt.Sprintf("%s/P=%d", coll.name, p), func(t *testing.T) {
				var logs [2][]event // by round
				run(t, p, func(c *Comm) {
					for round, reverse := range []bool{false, true} {
						pos, prev, next := c.Rank(), c.Rank()-1, c.Rank()+1
						if reverse {
							pos, prev, next = p-1-c.Rank(), c.Rank()+1, c.Rank()-1
						}
						if pos > 0 {
							c.Recv(prev, 1)
						}
						if pos < p-1 {
							c.Send(next, 1, Size(0))
						}
						logs[round] = append(logs[round], event{c.Rank(), false})
						coll.call(c)
						logs[round] = append(logs[round], event{c.Rank(), true})
					}
				})
				for round, log := range logs {
					lastEnter := -1
					for i, e := range log {
						if !e.leave {
							lastEnter = i
						}
					}
					if len(log) != 2*p {
						t.Errorf("round %d: %d events, want %d: %v", round, len(log), 2*p, log)
					} else if early := slices.IndexFunc(log[:lastEnter+1], func(e event) bool { return e.leave && coll.waits(e.rank) }); early >= 0 {
						t.Errorf("round %d: rank %d left before the last member entered: %v", round, log[early].rank, log)
					}
				}
			})
		}
	}
}

// TestAllreduceTracesItsBytes: a meeting the world recycles carries
// nothing from one call into the next. At every size, on the world and then
// on both halves of a Split, Allreduces of changing byte counts (none too),
// each after a Bcast that leaves its root's buffer in its meeting, trace
// their own byte count, with no peer, in the order they were called.
func TestAllreduceTracesItsBytes(t *testing.T) {
	sizes := []int{40, 8, 0, 24}
	forSizes(t, func(t *testing.T, p int) {
		traced := make([][]Event, p) // by world rank
		w := NewWorld(p, WithTimeout(testTimeout), WithTracerFactory(func(rank int) Tracer {
			return tracerFunc(func(e Event) {
				if e.Call == CallAllreduce {
					traced[rank] = append(traced[rank], e)
				}
			})
		}))
		err := w.Run(func(c *Comm) {
			half := c.Split(c.Rank()%2, c.Rank())
			for _, comm := range []*Comm{c, half} {
				for i, n := range sizes {
					b := Size(1000 + i)
					comm.Bcast(i%comm.Size(), &b)
					comm.Allreduce(Size(n))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(sizes, sizes)
		for rank, events := range traced {
			got := make([]int, len(events))
			for i, e := range events {
				got[i] = e.Bytes
				if e.Peer != NoPeer {
					t.Errorf("rank %d: Allreduce %d traced peer %d, want NoPeer", rank, i, e.Peer)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("rank %d: Allreduces traced %v bytes, want %v", rank, got, want)
			}
		}
	})
}

// TestAllreduceChargesItsBytes: under a cost model, an Allreduce moves each
// member's clock by the modeled cost of the caller's byte count on its own
// communicator's size, from wherever that member's clock stood (collectives
// merge no clocks), and stamps its event with the clock it leaves at. The
// ranks enter at different times: each first pays a self-send of its own
// size.
func TestAllreduceChargesItsBytes(t *testing.T) {
	m := DefaultCostModel()
	forSizes(t, func(t *testing.T, p int) {
		stamped := make([][]float64, p) // by world rank
		w := NewWorld(p, WithTimeout(testTimeout), WithCostModel(m), WithTracerFactory(func(rank int) Tracer {
			return tracerFunc(func(e Event) {
				if e.Call == CallAllreduce {
					stamped[rank] = append(stamped[rank], e.T)
				}
			})
		}))
		err := w.Run(func(c *Comm) {
			c.Send(c.Rank(), 1, Size(1000*c.Rank()))
			c.Recv(c.Rank(), 1)
			half := c.Split(c.Rank()%2, c.Rank())
			for i, comm := range []*Comm{c, half, c} {
				n := 8 << (4 * i)
				before := c.VirtualTime()
				comm.Allreduce(Size(n))
				after := c.VirtualTime()
				if want := before + m.collectiveCost(CallAllreduce, n, comm.Size()); after != want {
					panic(fmt.Sprintf("rank %d: Allreduce of %d bytes on %d ranks moved the clock %g → %g, want %g", c.Rank(), n, comm.Size(), before, after, want))
				}
				if got := stamped[c.Rank()]; len(got) != i+1 || got[i] != after {
					panic(fmt.Sprintf("rank %d: Allreduce stamps %v, want the last to be %g", c.Rank(), got, after))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllreduceAllocatesNothing runs 1 000 Allreduces at every size while
// rank 0 counts the process's mallocs per call: a buffer is a byte count,
// so nothing is combined or handed back, and every call after the first
// reuses a meeting from the world's free list. The sizes run one after
// another, as the count is the whole process's.
func TestAllreduceAllocatesNothing(t *testing.T) {
	const calls = 1000
	for _, ranks := range worldSizes {
		t.Run(fmt.Sprintf("P=%d", ranks), func(t *testing.T) {
			var got float64
			run(t, ranks, func(c *Comm) {
				c.Allreduce(Size(32))
				if c.Rank() != 0 {
					for i := 0; i < calls+1; i++ { // AllocsPerRun warms up with one extra call
						c.Allreduce(Size(32))
					}
					return
				}
				got = testing.AllocsPerRun(calls, func() { c.Allreduce(Size(32)) })
			})
			if got > 0 {
				t.Errorf("%v allocations per Allreduce across %d ranks, want 0", got, ranks)
			}
		})
	}
}

// TestAllreduceWaitsForEveryMember: an Allreduce that one member never
// enters leaves every other member parked in it, so the world reports a
// deadlock naming each of them, how many arrived, and not the absent one.
func TestAllreduceWaitsForEveryMember(t *testing.T) {
	for _, p := range worldSizes[1:] { // a lone rank cannot be absent
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			t.Parallel()
			err := NewWorld(p, WithTimeout(testTimeout)).Run(func(c *Comm) {
				if c.Rank() != p-1 {
					c.Allreduce(Size(8))
				}
			})
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("expected ErrDeadlock, got %v", err)
			}
			for r := 0; r < p-1; r++ {
				if want := fmt.Sprintf("rank %d waits in MPI_Allreduce(comm 0, inside collective 1, %d of %d arrived)", r, p-1, p); !strings.Contains(err.Error(), want) {
					t.Errorf("deadlock error %q does not say %q", err, want)
				}
			}
			if absent := fmt.Sprintf("rank %d ", p-1); strings.Contains(err.Error(), absent) {
				t.Errorf("deadlock error %q names rank %d, which finished", err, p-1)
			}
		})
	}
}

// TestMismatchedCollectivesFail: ranks that enter different collectives at
// one place in their order fail the run instead of pairing up.
func TestMismatchedCollectivesFail(t *testing.T) {
	err := NewWorld(2, WithTimeout(testTimeout)).Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.Split(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mpi: ranks entered different collectives: MPI_Barrier and MPI_Comm_split") {
		t.Fatalf("Barrier against Split: got %v", err)
	}
}

// TestGather runs Gather on a communicator whose ranks run opposite to the
// world's: every rank's tracer sees one MPI_Gather, naming the root by its
// world rank and carrying that rank's own bytes.
func TestGather(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		tracers := make([]*recordingTracer, p)
		w := NewWorld(p, WithTimeout(testTimeout), WithTracerFactory(func(rank int) Tracer {
			tracers[rank] = &recordingTracer{}
			return tracers[rank]
		}))
		err := w.Run(func(c *Comm) {
			c.Split(0, -c.Rank()).Gather(0, Size(1+c.Rank())) // comm rank 0 is world rank p-1
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, tr := range tracers {
			want := Event{Call: CallGather, Peer: p - 1, Bytes: 1 + rank}
			if len(tr.events) != 1 || tr.events[0] != want {
				t.Errorf("rank %d traced %+v, want [%+v]", rank, tr.events, want)
			}
		}
	})
}

// TestAllgather checks the gather Split runs: every member's (color, key)
// reaches every other. At every size the ranks split three ways, every
// fifth rank with no color, on keys that tie in pairs and run against the
// ranks; each new communicator must hold exactly its color's ranks, by key
// and then by parent rank.
func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		color := func(r int) int {
			if r%5 == 4 {
				return -1
			}
			return r % 3
		}
		key := func(r int) int { return (p - r) / 2 }
		run(t, p, func(c *Comm) {
			sub := c.Split(color(c.Rank()), key(c.Rank()))
			if color(c.Rank()) < 0 {
				if sub != nil {
					panic(fmt.Sprintf("rank %d: no color, but Split returned a communicator", c.Rank()))
				}
				return
			}
			var want []int
			for r := range p {
				if color(r) == color(c.Rank()) {
					want = append(want, r)
				}
			}
			slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
			got := make([]int, sub.Size())
			for i := range got {
				got[i] = sub.WorldRank(i)
			}
			if !slices.Equal(got, want) || got[sub.Rank()] != c.Rank() {
				panic(fmt.Sprintf("rank %d: Split gave ranks %v with it at %d, want %v", c.Rank(), got, sub.Rank(), want))
			}
		})
	})
}

func TestSplitGroups(t *testing.T) {
	run(t, 8, func(c *Comm) {
		// Two groups: even and odd ranks, ordered by descending world rank
		// via negative keys.
		sub := c.Split(c.Rank()%2, -c.Rank())
		if sub.Size() != 4 {
			panic(fmt.Sprintf("split size %d", sub.Size()))
		}
		// Highest world rank should be comm rank 0.
		want := map[int]int{0: 6, 1: 7}[c.Rank()%2]
		if sub.WorldRank(0) != want {
			panic(fmt.Sprintf("split order: comm rank 0 is world %d, want %d", sub.WorldRank(0), want))
		}
		// Sub-communicators work for collectives and PTP independently.
		sub.Allreduce(Size(8))
		r := sub.Rank()
		left := (r + 3) % 4
		sub.Sendrecv((r+1)%4, 1, Size(10+r), left, 1)
		if m := sub.lastMatch(); m.Source != sub.WorldRank(left) || m.N != 10+left {
			panic(fmt.Sprintf("sub sendrecv matched %+v, want %d bytes from world rank %d", m, 10+left, sub.WorldRank(left)))
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	run(t, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				panic("undefined color should return nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			panic(fmt.Sprintf("split size %d", sub.Size()))
		}
		sub.Barrier()
	})
}

func TestSplitIsolatedContexts(t *testing.T) {
	// Messages on a sub-communicator must not match receives on the
	// parent, even with identical tags and ranks.
	run(t, 4, func(c *Comm) {
		sub := c.Split(0, c.Rank()) // same group, new context
		switch c.Rank() {
		case 0:
			sub.Send(1, 9, Size(111))
			c.Send(1, 9, Size(222))
		case 1:
			c.Recv(0, 9)
			nParent := c.lastMatch().N
			sub.Recv(0, 9)
			nSub := sub.lastMatch().N
			if nParent != 222 || nSub != 111 {
				panic(fmt.Sprintf("context leak: parent=%d sub=%d", nParent, nSub))
			}
		}
	})
}

// TestSplitOneColor: a split in which every rank names one color and its
// own rank as key keeps the group and the ranks under a fresh id, what
// MPI_Comm_dup gives.
func TestSplitOneColor(t *testing.T) {
	run(t, 4, func(c *Comm) {
		d := c.Split(0, c.Rank())
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			panic("split changed group or rank")
		}
		if d.id == c.id {
			panic("split did not get a fresh id")
		}
		d.Barrier()
	})
}

// TestCollectiveStress interleaves many collectives to shake out context
// collisions.
func TestCollectiveStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	w := NewWorld(9, WithTimeout(2*time.Minute))
	err := w.Run(func(c *Comm) {
		for iter := 0; iter < 50; iter++ {
			root := iter % c.Size()
			b := Buf{}
			if c.Rank() == root {
				b = Size(iter + 1)
			}
			c.Bcast(root, &b)
			if b.N != iter+1 {
				panic("bcast corrupted under stress")
			}
			c.Allreduce(Size(8))
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
