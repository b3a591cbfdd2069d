package pipeline

import (
	"context"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/trace"
)

// benchDeltas profiles cactus at P=256 once and splits it into the delta
// stream the fold benchmarks replay, decoded and as the wire objects a
// client would POST.
func benchDeltas(b *testing.B) ([]*ipm.Delta, [][]byte) {
	b.Helper()
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 256, Steps: 4})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, len(ds))
	for i, d := range ds {
		raws[i] = wireOf(b, d)
	}
	return ds, raws
}

// foldLink folds the i-th delta of the benchmark stream into a state.
type foldLink func(i int, key Key, st *trace.StreamState) (*trace.StreamState, Key, Outcome, error)

// foldStream folds an n-delta stream into pl from the empty P=256 state.
func foldStream(b *testing.B, pl *Pipeline, n int, fold foldLink) {
	st, key, _, err := pl.FoldInit(context.Background(), FoldSeed{Procs: 256})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if st, key, _, err = fold(i, key, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamFoldCold folds a P=256 stream of encoded deltas through
// an empty pipeline each iteration, as hfastd does for a new stream: the
// full cost of live ingestion (hash, decode, graph build, window append,
// detector) with nothing cached. The deltas/s metric is the ingestion
// throughput headline.
func BenchmarkStreamFoldCold(b *testing.B) {
	_, raws := benchDeltas(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := New(Options{})
		foldStream(b, pl, len(raws), func(i int, key Key, st *trace.StreamState) (*trace.StreamState, Key, Outcome, error) {
			return pl.FoldWire(ctx, key, st, raws[i])
		})
	}
	b.ReportMetric(float64(len(raws))*float64(b.N)/b.Elapsed().Seconds(), "deltas/s")
}

// BenchmarkStreamFoldWarm replays the same stream against a pipeline that
// has already folded it: every link is a content-addressed cache hit, the
// re-provisioning fast path a reconnecting client rides. FoldWire is what
// hfastd runs — hash the received bytes, look the key up; FoldDelta is
// the struct entry point, which must first encode the delta to name it.
func BenchmarkStreamFoldWarm(b *testing.B) {
	ds, raws := benchDeltas(b)
	ctx := context.Background()
	pl := New(Options{})
	for _, entry := range []struct {
		name string
		fold foldLink
	}{
		{"FoldWire", func(i int, key Key, st *trace.StreamState) (*trace.StreamState, Key, Outcome, error) {
			return pl.FoldWire(ctx, key, st, raws[i])
		}},
		{"FoldDelta", func(i int, key Key, st *trace.StreamState) (*trace.StreamState, Key, Outcome, error) {
			return pl.FoldDelta(ctx, key, st, ds[i])
		}},
	} {
		b.Run(entry.name, func(b *testing.B) {
			foldStream(b, pl, len(ds), entry.fold)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldStream(b, pl, len(ds), entry.fold)
			}
			b.ReportMetric(float64(len(ds))*float64(b.N)/b.Elapsed().Seconds(), "deltas/s")
		})
	}
}
