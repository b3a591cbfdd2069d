package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRangesCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, SerialThreshold - 1, SerialThreshold, 4096} {
		hits := make([]int32, n)
		Ranges(n, 0, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("n=%d: bad shard [%d,%d)", n, lo, hi)
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

func TestRangesSmallInputRunsInline(t *testing.T) {
	calls := 0
	Ranges(16, 32, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 16 {
			t.Errorf("inline shard [%d,%d), want [0,16)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("small input split into %d shards", calls)
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

func TestRangesZeroAndNegative(t *testing.T) {
	calls := 0
	Ranges(0, 0, func(lo, hi int) { calls++ })
	Ranges(-3, 0, func(lo, hi int) { calls++ })
	if calls != 0 {
		t.Errorf("Ranges on empty input called fn %d times", calls)
	}
}

// TestRangesSingleWorker pins the documented collapse: with one worker
// available there is exactly one shard on the calling goroutine, even
// for inputs far above the serial threshold.
func TestRangesSingleWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	calls := 0
	Ranges(4*SerialThreshold, 0, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 4*SerialThreshold {
			t.Errorf("single-worker shard [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("single worker split into %d shards", calls)
	}
}

// TestRangesBelowMinNRunsInline covers the explicit-minN branch with
// n strictly under it (n < minN, n > 0).
func TestRangesBelowMinNRunsInline(t *testing.T) {
	calls := 0
	Ranges(1, 2, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1 {
			t.Errorf("shard [%d,%d), want [0,1)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("n<minN split into %d shards", calls)
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
