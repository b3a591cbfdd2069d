package mpi

import (
	"fmt"
	"math"
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
					b = Data([]byte(fmt.Sprintf("payload-from-%d", root)))
				}
				c.Bcast(root, &b)
				want := fmt.Sprintf("payload-from-%d", root)
				if string(b.Data) != want {
					panic(fmt.Sprintf("rank %d: bcast root %d: got %q want %q", c.Rank(), root, b.Data, want))
				}
			}
		})
	})
}

// TestReduceSum drives the binomial-tree reduce Allreduce runs at root 0
// to other roots as well, so every tree shape is checked.
func TestReduceSum(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			for root := 0; root < c.Size(); root += 1 + c.Size()/3 {
				vals := []float64{float64(c.Rank()), 1}
				res := c.reduce(c.collCtx(), root, vals, OpSum)
				if c.Rank() == root {
					n := float64(c.Size())
					wantSum := n * (n - 1) / 2
					if res == nil || res[0] != wantSum || res[1] != n {
						panic(fmt.Sprintf("reduce root %d: got %v want [%g %g]", root, res, wantSum, n))
					}
				} else if res != nil {
					panic("non-root got reduce result")
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

// TestReductionsLeaveValsAlone: a leaf encodes the caller's vals without
// copying them, so every other rank must combine into a copy. Every rank
// of every tree shape reduces to every root, and neither its vals nor the
// result it gets back may share memory with the other.
func TestReductionsLeaveValsAlone(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			me := float64(c.Rank())
			check := func(what string, vals, res []float64) {
				if vals[0] != me || vals[1] != 1 {
					panic(fmt.Sprintf("rank %d: %s changed the caller's vals to %v", c.Rank(), what, vals))
				}
				if res != nil {
					res[0] = -1
					if vals[0] != me {
						panic(fmt.Sprintf("rank %d: %s returned the caller's vals", c.Rank(), what))
					}
				}
			}
			for root := 0; root < c.Size(); root++ {
				vals := []float64{me, 1}
				check(fmt.Sprintf("reduce to %d", root), vals, c.reduce(c.collCtx(), root, vals, OpSum))
			}
			vals := []float64{me, 1}
			check("Allreduce", vals, c.Allreduce(vals, OpSum))
		})
	})
}

func TestGather(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			root := c.Size() - 1
			res := c.Gather(root, Data([]byte{byte(c.Rank())}))
			if c.Rank() == root {
				if len(res) != c.Size() {
					panic("gather result wrong length")
				}
				for r, b := range res {
					if len(b.Data) != 1 || b.Data[0] != byte(r) {
						panic(fmt.Sprintf("gather slot %d: %v", r, b.Data))
					}
				}
			} else if res != nil {
				panic("non-root got gather result")
			}
		})
	})
}

// TestAllgather checks the ring allgather Split runs: every rank hands
// every other rank's piece to its callback, named by its source.
func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, p int) {
		run(t, p, func(c *Comm) {
			res := make([]Buf, c.Size())
			res[c.Rank()] = Data([]byte{byte(c.Rank()), byte(c.Rank() + 1)})
			c.ring(c.collCtx(), res[c.Rank()], func(src int, piece Buf) { res[src] = piece })
			for r, b := range res {
				if b.N != 2 || b.Data[0] != byte(r) || b.Data[1] != byte(r+1) {
					panic(fmt.Sprintf("allgather slot %d: %v", r, b.Data))
				}
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

func TestDup(t *testing.T) {
	run(t, 4, func(c *Comm) {
		d := c.Dup()
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			panic("dup changed group or rank")
		}
		if d.ID() == c.ID() {
			panic("dup did not get a fresh id")
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
				b = Data([]byte{byte(iter)})
			}
			c.Bcast(root, &b)
			if b.Data[0] != byte(iter) {
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
