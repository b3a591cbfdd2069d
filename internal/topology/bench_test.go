package topology_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// benchPairs synthesizes a GTC-like communication pattern at size p: each
// rank talks to its six grid neighbors plus a handful of long-range
// toroidal shift partners, with a size mix spanning the cutoff range.
// This keeps the benchmark deterministic and independent of the skeleton
// runtimes while matching the paper's observed sparsity (TDC ≈ 10). The
// list is in (Src, Dst) order, as FromPairs requires.
func benchPairs(p int) []ipm.PairTraffic {
	var pairs []ipm.PairTraffic
	add := func(src, dst int, msgs, bytes int64, maxMsg int) {
		if src == dst {
			return
		}
		pairs = append(pairs, ipm.PairTraffic{Src: src, Dst: dst, Msgs: msgs, Bytes: bytes, MaxMsg: maxMsg})
	}
	for i := 0; i < p; i++ {
		for _, off := range []int{1, 2, 7} {
			j := (i + off) % p
			add(i, j, 100, 100*8192, 8192)
			add(i, (i-off+p)%p, 100, 100*8192, 8192)
		}
		// Long-range shift with sub-cutoff messages: exercises the
		// threshold predicate without raising the provisioned degree.
		add(i, (i+p/2)%p, 10, 10*512, 512)
	}
	slices.SortFunc(pairs, func(a, b ipm.PairTraffic) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return pairs
}

// denseBuild replays the pair list into the dense P×P reference from
// parity_test.go — the representation this PR replaced — so -benchmem
// reports the bytes/op the old analysis path paid at each size.
func denseBuild(p int, pairs []ipm.PairTraffic) *denseRef {
	d := newDenseRef(p)
	for _, pt := range pairs {
		d.add(pt.Src, pt.Dst, pt.Msgs, pt.Bytes, pt.MaxMsg)
	}
	return d
}

func BenchmarkGraphBuild(b *testing.B) {
	for _, p := range []int{256, 1024} {
		pairs := benchPairs(p)
		b.Run(fmt.Sprintf("sparse/P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.FromPairs(p, pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense/P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				denseBuild(p, pairs)
			}
		})
	}
}

func BenchmarkSweep(b *testing.B) {
	for _, p := range []int{256, 1024} {
		pairs := benchPairs(p)
		g, err := topology.FromPairs(p, pairs)
		if err != nil {
			b.Fatal(err)
		}
		d := denseBuild(p, pairs)
		b.Run(fmt.Sprintf("sparse/P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Sweep(nil)
			}
		})
		b.Run(fmt.Sprintf("dense/P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.sweep(topology.PaperCutoffs())
			}
		})
	}
}
