package pipeline_test

import (
	"context"
	"testing"

	"github.com/hfast-sim/hfast/internal/pipeline"
)

// The cold/warm pair below is the PR's headline: a provisioning plan for
// a P=256 skeleton resolved from an empty store (profile run + graph +
// assignment + wiring) versus the same request against a warm store (one
// key lookup). Warm must stay ≥10x under cold.

const benchProcs = 256

func benchRef() pipeline.ProfileRef {
	return pipeline.Spec(pipeline.ProfileSpec{App: "cactus", Procs: benchProcs, Steps: 2})
}

func BenchmarkPlanColdP256(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pipe := pipeline.New(pipeline.Options{})
		if _, _, err := pipe.Plan(ctx, benchRef(), pipeline.Steady(), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanWarmP256(b *testing.B) {
	ctx := context.Background()
	pipe := pipeline.New(pipeline.Options{})
	if _, _, err := pipe.Plan(ctx, benchRef(), pipeline.Steady(), 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, how, err := pipe.Plan(ctx, benchRef(), pipeline.Steady(), 0, 0); err != nil || how != pipeline.Hit {
			b.Fatalf("warm resolve: how=%v err=%v", how, err)
		}
	}
}
