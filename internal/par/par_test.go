package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 4096} {
		hits := make([]int32, n)
		For(n, func(i int) {
			if i < 0 || i >= n {
				t.Errorf("n=%d: index %d out of range", n, i)
				return
			}
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestForOneIndexRunsInline pins the n = 1 collapse: one call, run on
// the calling goroutine (the unsynchronized counter would trip the race
// detector otherwise).
func TestForOneIndexRunsInline(t *testing.T) {
	calls := 0
	For(1, func(i int) {
		calls++
		if i != 0 {
			t.Errorf("inline index %d, want 0", i)
		}
	})
	if calls != 1 {
		t.Errorf("one index ran %d times", calls)
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

func TestForZeroAndNegative(t *testing.T) {
	calls := 0
	For(0, func(int) { calls++ })
	For(-3, func(int) { calls++ })
	if calls != 0 {
		t.Errorf("For on empty input called fn %d times", calls)
	}
}

// TestForSingleWorker pins the one-worker collapse: every index runs on
// the calling goroutine, in ascending order.
func TestForSingleWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var got []int
	For(15, func(i int) { got = append(got, i) })
	if len(got) != 15 {
		t.Fatalf("single worker ran %d indices, want 15", len(got))
	}
	for k, i := range got {
		if i != k {
			t.Fatalf("single-worker order %v, want ascending", got)
		}
	}
}
