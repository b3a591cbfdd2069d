package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestRequestFitsItsSizeClass pins the handle's layout: what a match
// carried lives in the request's own fields and no payload does, so a request is 64
// bytes and takes the 64-byte size class (with a payload slice it was 88
// bytes in the 96-byte class). PARATEC at P=64 holds 45 056 handles per
// run.
func TestRequestFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 64 {
		t.Errorf("a Request is %d bytes, want at most 64", size)
	}
}

// TestSplitBytesIndependentOfP splits a world into groups of 4 and holds
// what the Split allocates per rank at P=256 to at most 1.25× what it
// allocates at P=64: a rank keeps the members of its own color, not a
// vector with an entry per rank of the parent. Bytes are counted with one
// P and no collection, as a world that splits five times net of one that
// splits three times, each measured on its second run. The meetings'
// tables, one entry per rank of the parent, are the world's and reused by
// every later Split, so they cancel out. Measured: ≈ 390 B per Split and
// rank at both sizes, against 6.4 KB and 24.3 KB when every rank gathered
// the whole parent.
func TestSplitBytesIndependentOfP(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRank := func(p int) float64 {
		bytes := func(splits int) int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(t, p, func(c *Comm) {
				for range splits {
					c.Split(c.Rank()/4, c.Rank())
				}
			})
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		bytes(5)
		bytes(3)
		return float64(bytes(5)-bytes(3)) / float64(2*p)
	}
	small, large := perRank(64), perRank(256)
	t.Logf("Split into groups of 4: %.0f B per rank at P=64, %.0f at P=256", small, large)
	if large > 1.25*small {
		t.Errorf("Split allocates %.0f B per rank at P=256, more than 1.25× its %.0f B at P=64", large, small)
	}
}
