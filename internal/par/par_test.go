package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The TestRanges* cases pinned the deleted par.Ranges splitter; its
// contract (every index once, small inputs inline) is ForChunks' now.

func TestRangesCoversEveryIndexOnce(t *testing.T) {
	const chunk = 64
	for _, n := range []int{0, 1, 7, chunk - 1, chunk, 4096} {
		hits := make([]int32, n)
		ForChunks(n, chunk, func(ci, lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("n=%d: bad chunk %d [%d,%d)", n, ci, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestRangesSmallInputRunsInline pins the n ≤ chunk collapse: one
// chunk, run on the calling goroutine (the unsynchronized counter would
// trip the race detector otherwise).
func TestRangesSmallInputRunsInline(t *testing.T) {
	calls := 0
	ForChunks(16, 32, func(ci, lo, hi int) {
		calls++
		if ci != 0 || lo != 0 || hi != 16 {
			t.Errorf("inline chunk %d [%d,%d), want 0 [0,16)", ci, lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("small input split into %d chunks", calls)
	}
}

// TestRangesBelowMinNRunsInline covers n strictly under the chunk size
// (0 < n < chunk): one inline chunk covering [0,n).
func TestRangesBelowMinNRunsInline(t *testing.T) {
	calls := 0
	ForChunks(1, 2, func(ci, lo, hi int) {
		calls++
		if ci != 0 || lo != 0 || hi != 1 {
			t.Errorf("chunk %d [%d,%d), want 0 [0,1)", ci, lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("n<chunk split into %d chunks", calls)
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d", w)
	}
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Errorf("Workers(big) = %d", w)
	}
	if w, mp := Workers(1<<20), runtime.GOMAXPROCS(0); w > mp {
		t.Errorf("Workers(big) = %d exceeds GOMAXPROCS %d", w, mp)
	}
	if w := Workers(-5); w != 1 {
		t.Errorf("Workers(-5) = %d", w)
	}
}

func TestForChunksZeroAndNegative(t *testing.T) {
	calls := 0
	ForChunks(0, 4, func(ci, lo, hi int) { calls++ })
	ForChunks(-3, 4, func(ci, lo, hi int) { calls++ })
	if calls != 0 {
		t.Errorf("ForChunks on empty input called fn %d times", calls)
	}
}

// TestForChunksSingleWorker pins the one-worker collapse: every chunk
// runs on the calling goroutine, in ascending order, even for inputs far
// above one chunk.
func TestForChunksSingleWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var got []int
	ForChunks(100, 7, func(ci, lo, hi int) { got = append(got, ci) })
	if len(got) != 15 {
		t.Fatalf("single worker ran %d chunks, want 15", len(got))
	}
	for i, ci := range got {
		if ci != i {
			t.Fatalf("single-worker order %v, want ascending", got)
		}
	}
}

func TestForChunksGridIsWorkerIndependent(t *testing.T) {
	const chunk = 2048
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 5*chunk + 13} {
		hits := make([]int32, n)
		var chunks int32
		ForChunks(n, chunk, func(ci, lo, hi int) {
			atomic.AddInt32(&chunks, 1)
			if lo != ci*chunk {
				t.Errorf("n=%d: chunk %d starts at %d", n, ci, lo)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		want := int32((n + chunk - 1) / chunk)
		if chunks != want {
			t.Errorf("n=%d: %d chunks, want %d", n, chunks, want)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestRunPriorityCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		hits := make([]int32, n)
		RunPriority(n, func(i int) float64 { return float64(n - i) }, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestRunPriorityInlineOrder pins the serial collapse: one worker runs
// the tasks inline in ascending (priority, index) order.
func TestRunPriorityInlineOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pri := []float64{3, 1, 2, 1}
	var got []int
	RunPriority(len(pri), func(i int) float64 { return pri[i] }, func(i int) {
		got = append(got, i)
	})
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inline order %v, want %v", got, want)
		}
	}
}
