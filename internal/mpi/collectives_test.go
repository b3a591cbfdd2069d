package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
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

// TestReduceSum drives the fold Allreduce runs through meetings the world
// recycles: at every size, vectors of changing length (empty too) on the
// world and then on both halves of a Split, so a meeting that held longer
// vectors, or more of them, folds shorter ones and fewer.
func TestReduceSum(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			half := c.Split(c.Rank()%2, c.Rank())
			for _, comm := range []*Comm{c, half} {
				n, me := float64(comm.Size()), float64(comm.Rank())
				for _, k := range []int{5, 1, 0, 3} {
					vals := make([]float64, k)
					for i := range vals {
						vals[i] = me + float64(i)
					}
					res := comm.Allreduce(vals, OpSum)
					if len(res) != k {
						panic(fmt.Sprintf("rank %d of %d: Allreduce of %d floats returned %d", comm.Rank(), comm.Size(), k, len(res)))
					}
					for i, got := range res {
						if want := n*(n-1)/2 + n*float64(i); got != want {
							panic(fmt.Sprintf("rank %d of %d, %d floats: element %d is %g, want %g", comm.Rank(), comm.Size(), k, i, got, want))
						}
					}
					comm.Barrier()
				}
			}
		})
	})
}

func TestAllreduceOps(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			n := float64(c.Size())
			me := float64(c.Rank())

			sum := c.Allreduce([]float64{me}, OpSum)
			if sum[0] != n*(n-1)/2 {
				panic(fmt.Sprintf("allreduce sum: got %g", sum[0]))
			}
			max := c.Allreduce([]float64{me}, OpMax)
			if max[0] != n-1 {
				panic(fmt.Sprintf("allreduce max: got %g", max[0]))
			}
			min := c.Allreduce([]float64{me + 5}, OpMin)
			if min[0] != 5 {
				panic(fmt.Sprintf("allreduce min: got %g", min[0]))
			}
			prod := c.Allreduce([]float64{2}, OpProd)
			if prod[0] != math.Pow(2, n) {
				panic(fmt.Sprintf("allreduce prod: got %g", prod[0]))
			}
		})
	})
}

// TestReductionsLeaveValsAlone: a meeting holds the caller's vals without
// copying them, so the fold must work on a copy. On every rank of every
// tree shape, neither the vals nor the result Allreduce hands back may
// share memory with the other.
func TestReductionsLeaveValsAlone(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			me := float64(c.Rank())
			vals := []float64{me, 1}
			res := c.Allreduce(vals, OpSum)
			if vals[0] != me || vals[1] != 1 {
				panic(fmt.Sprintf("rank %d: Allreduce changed the caller's vals to %v", c.Rank(), vals))
			}
			res[0] = -1
			if vals[0] != me {
				panic(fmt.Sprintf("rank %d: Allreduce returned the caller's vals", c.Rank()))
			}
		})
	})
}

// binomialFold combines xs as a binomial tree rooted at index 0 does: each
// rank combines its children's subtree results into its own value, nearest
// child first, and the child at distance s heads a subtree of s ranks.
func binomialFold(xs []float64, combine func(acc, x float64) float64) float64 {
	var subtree func(r, span int) float64
	subtree = func(r, span int) float64 {
		acc := xs[r]
		for s := 1; s < span && r+s < len(xs); s *= 2 {
			acc = combine(acc, subtree(r+s, s))
		}
		return acc
	}
	return subtree(0, len(xs))
}

// TestAllreduceTreeOrder pins the order Allreduce combines in, without a
// clock: over inputs where float addition is not associative, an OpSum at
// every P from 1 to 17 equals, bit for bit, the sum a binomial tree rooted
// at rank 0 gives, and so differs from a left-to-right sum wherever those
// two differ (at several of these P).
func TestAllreduceTreeOrder(t *testing.T) {
	pattern := []float64{1e16, 1, -1e16, 1, 3, -1e16, 1e16, 0.5}
	differs := 0
	for p := 1; p <= 17; p++ {
		xs := make([]float64, p)
		for r := range xs {
			xs[r] = pattern[r%len(pattern)]
		}
		tree, left := binomialFold(xs, func(acc, x float64) float64 { return acc + x }), 0.0
		for _, x := range xs {
			left += x
		}
		if math.Float64bits(tree) != math.Float64bits(left) {
			differs++
		}
		run(t, p, func(c *Comm) {
			got := c.Allreduce([]float64{xs[c.Rank()]}, OpSum)[0]
			if math.Float64bits(got) != math.Float64bits(tree) {
				panic(fmt.Sprintf("P=%d rank %d: Allreduce summed to %g, the binomial tree to %g (left to right: %g)", p, c.Rank(), got, tree, left))
			}
		})
	}
	if differs < 3 {
		t.Fatalf("the tree and left-to-right sums differ at only %d of 17 sizes: the inputs do not tell the orders apart", differs)
	}
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
		{"Allreduce", func(c *Comm) { c.Allreduce([]float64{1}, OpSum) }, everyone},
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
		sum := sub.Allreduce([]float64{float64(c.Rank())}, OpSum)
		wantSum := map[int]float64{0: 0 + 2 + 4 + 6, 1: 1 + 3 + 5 + 7}[c.Rank()%2]
		if sum[0] != wantSum {
			panic(fmt.Sprintf("sub allreduce got %g want %g", sum[0], wantSum))
		}
		r := sub.Rank()
		st := sub.Sendrecv((r+1)%4, 1, Size(10+r), (r+3)%4, 1)
		if st.N != 10+(r+3)%4 {
			panic("sub sendrecv mismatch")
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
			stParent := c.Recv(0, 9)
			stSub := sub.Recv(0, 9)
			if stParent.N != 222 || stSub.N != 111 {
				panic(fmt.Sprintf("context leak: parent=%d sub=%d", stParent.N, stSub.N))
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
		if d.ID() == c.ID() {
			panic("split did not get a fresh id")
		}
		d.Barrier()
	})
}

// TestAllreduceQuick property-tests allreduce sum against a serial sum for
// random vectors across random world sizes.
func TestAllreduceQuick(t *testing.T) {
	f := func(raw []int8, sizeSeed uint8) bool {
		p := int(sizeSeed)%6 + 1
		vals := make([]float64, len(raw)%8+1)
		for i := range vals {
			if i < len(raw) {
				vals[i] = float64(raw[i])
			}
		}
		want := make([]float64, len(vals))
		for i := range want {
			want[i] = vals[i] * float64(p)
		}
		w := NewWorld(p, WithTimeout(testTimeout))
		ok := true
		err := w.Run(func(c *Comm) {
			got := c.Allreduce(vals, OpSum)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
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
			sum := c.Allreduce([]float64{1}, OpSum)
			if sum[0] != float64(c.Size()) {
				panic("allreduce corrupted under stress")
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
