// Package par is the bounded fan-out for independent jobs: netsim's
// component timelines and mesh region shards, and the experiments'
// fabric replays. Workers caps a fan-out at GOMAXPROCS; For runs one job
// per index, so a caller that writes per-index outputs stays
// deterministic, and its only order is the ascending one it keeps when
// it runs inline. Per-rank analysis passes (graph builds, TDC sweeps,
// fabric assignment) are linear and cheap next to profiling, so they run
// as plain loops and never come here.
package par

import (
	"runtime"
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
