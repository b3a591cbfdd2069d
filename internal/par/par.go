// Package par is the bounded fan-out the analysis pipeline and the
// netsim engine share, four functions over one pool bound: Workers caps
// a fan-out at GOMAXPROCS; Ranges splits per-rank work (graph builds, TDC
// sweeps, fabric assignment) into contiguous shards, one per worker,
// collapsing to a plain loop for small inputs so the P≤256 paper grid
// stays on the code path it always ran; ForChunks splits over a fixed,
// worker-independent grid for callers that keep per-chunk outputs; and
// RunPriority runs tasks most-urgent-first.
package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// SerialThreshold is the input size below which Ranges runs inline: the
// paper-scale grids (P ≤ 256) are too small for goroutine fan-out to pay
// for itself, and keeping them serial preserves their allocation profile.
const SerialThreshold = 512

// Workers returns the pool bound for n independent items: at most
// GOMAXPROCS, at most one worker per item, at least one.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForChunks splits [0,n) into chunks of the caller's fixed, positive size
// and calls fn(ci, lo, hi) for chunk ci covering [lo,hi), chunks spread
// across pooled workers. Unlike Ranges the chunk grid is a pure function
// of n and chunk — never of the worker count — so a caller that writes
// per-chunk outputs and merges them by chunk index gets bit-identical
// results at any parallelism. n ≤ chunk or a single worker runs inline on
// the calling goroutine.
func ForChunks(n, chunk int, fn func(ci, lo, hi int)) {
	if n <= 0 {
		return
	}
	nc := (n + chunk - 1) / chunk
	run := func(ci int) { fn(ci, ci*chunk, min((ci+1)*chunk, n)) }
	workers := Workers(nc)
	if workers == 1 {
		for ci := 0; ci < nc; ci++ {
			run(ci)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				ci := int(atomic.AddInt64(&next, 1)) - 1
				if ci >= nc {
					return
				}
				run(ci)
			}
		}()
	}
	wg.Wait()
}

// RunPriority runs fn(i) for every i in [0,n) over pooled workers,
// dispatching tasks in ascending (pri(i), i) order: workers pull the
// next undone task from the sorted queue, so the most urgent tasks
// (netsim component timelines with the earliest projected events, which
// are the longest-running) start first and stragglers steal whatever
// remains. The priority shapes only the start order — every task runs
// to completion before RunPriority returns — so callers that reduce
// per-index results in index order stay parallelism-independent. A
// single task or a single worker runs inline, in sorted order.
func RunPriority(n int, pri func(int) float64, fn func(int)) {
	if n <= 0 {
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pri(order[a]), pri(order[b])
		if pa != pb {
			return pa < pb
		}
		return order[a] < order[b]
	})
	workers := Workers(n)
	if n == 1 || workers == 1 {
		for _, i := range order {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= n {
					return
				}
				fn(order[k])
			}
		}()
	}
	wg.Wait()
}

// Ranges splits [0,n) into contiguous shards and calls fn(lo,hi) for each,
// one shard per pooled worker. Shards are disjoint, so fn may write to
// per-index state without locking. When n < minN (SerialThreshold if
// minN ≤ 0) or only one worker is available, fn(0,n) runs on the calling
// goroutine. Ranges returns when every shard has completed.
func Ranges(n, minN int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minN <= 0 {
		minN = SerialThreshold
	}
	workers := Workers(n)
	if n < minN || workers == 1 {
		fn(0, n)
		return
	}
	// A few shards per worker smooths uneven per-rank work (degree skew)
	// without measurable scheduling overhead at these shard sizes.
	shards := 4 * workers
	if shards > n {
		shards = n
	}
	per := (n + shards - 1) / shards
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
