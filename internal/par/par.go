// Package par is the bounded fan-out for independent jobs: netsim's
// routing chunks, component timelines and region shards, and the
// experiments' fabric replays. Workers caps a fan-out at GOMAXPROCS;
// ForChunks splits over a fixed, worker-independent grid so callers that
// keep per-chunk outputs stay deterministic; RunPriority runs tasks
// most-urgent-first. Per-rank analysis passes (graph builds, TDC sweeps,
// fabric assignment) are linear and cheap next to profiling, so they run
// as plain loops and never come here.
package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

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
// across pooled workers. The chunk grid is a pure function of n and
// chunk — never of the worker count — so a caller that writes per-chunk
// outputs and merges them by chunk index gets bit-identical results at
// any parallelism. n ≤ chunk or a single worker runs inline on the
// calling goroutine.
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
	ForChunks(n, 1, func(k, _, _ int) { fn(order[k]) })
}
