// Package par is the bounded fan-out for independent jobs: netsim's
// component timelines and mesh region shards, and the experiments'
// fabric replays. Workers caps a fan-out at GOMAXPROCS; For runs one job
// per index, so a caller that writes per-index outputs stays
// deterministic; RunPriority runs tasks most-urgent-first. Per-rank
// analysis passes (graph builds, TDC sweeps, fabric assignment) are
// linear and cheap next to profiling, so they run as plain loops and
// never come here.
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

// For calls fn(i) for every i in [0,n), indices spread across pooled
// workers that each pull the next undone index. A caller that writes
// per-index outputs and reduces them in index order gets bit-identical
// results at any parallelism. n ≤ 1 or a single worker runs inline on
// the calling goroutine, in ascending order.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := Workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
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
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
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
	For(n, func(k int) { fn(order[k]) })
}
