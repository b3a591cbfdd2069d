package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// smallSpecs is a fast grid for runner tests: every app at a size that
// profiles in milliseconds.
func smallSpecs() []Spec {
	specs := make([]Spec, 0, len(PaperApps))
	for _, app := range PaperApps {
		specs = append(specs, Spec{App: app, Procs: 8})
	}
	return specs
}

func TestPaperSpecsCoverGrid(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != len(PaperApps)*len(PaperProcs) {
		t.Fatalf("got %d specs, want %d", len(specs), len(PaperApps)*len(PaperProcs))
	}
	seen := make(map[Spec]bool)
	for _, s := range specs {
		if seen[s] {
			t.Fatalf("duplicate spec %+v", s)
		}
		seen[s] = true
	}
}

// TestWarmAllMatchesSerial pins the determinism argument for the
// parallel warm-up: a profile computed under WarmAll's worker pool must
// be byte-identical (canonical JSON) to one computed alone — each spec
// runs in its own isolated mpi.World, whose scheduler alone decides the
// order its ranks run in, so concurrency outside the world cannot leak
// in. That holds for every skeleton, wildcard receives included.
func TestWarmAllMatchesSerial(t *testing.T) {
	specs := smallSpecs()
	warm := NewRunner(2)
	if err := warm.WarmAll(context.Background(), specs, 4); err != nil {
		t.Fatalf("WarmAll: %v", err)
	}
	for _, s := range specs {
		parallel, err := warm.Profile(s.App, s.Procs)
		if err != nil {
			t.Fatalf("warm profile %v: %v", s, err)
		}
		serial, err := apps.ProfileRun(s.App, apps.Config{Procs: s.Procs, Steps: 2})
		if err != nil {
			t.Fatalf("serial profile %v: %v", s, err)
		}
		var a, b bytes.Buffer
		if err := parallel.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := serial.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s/%d: parallel warm-up not byte-identical to serial run", s.App, s.Procs)
		}
	}
}

// TestWarmAllCoalescesDuplicates checks that duplicate specs in one
// warm-up (and a second warm-up over the same grid) do not re-run the
// pipeline.
func TestWarmAllCoalescesDuplicates(t *testing.T) {
	r := NewRunner(1)
	specs := []Spec{{"cactus", 8}, {"cactus", 8}, {"cactus", 8}, {"gtc", 8}}
	// Every profile-stage miss runs exactly one skeleton, so the stage's
	// miss counter is the run count for a fresh runner.
	if err := r.WarmAll(context.Background(), specs, 4); err != nil {
		t.Fatalf("WarmAll: %v", err)
	}
	if got := r.Pipeline().Metrics().Stage(pipeline.StageProfile).Misses; got != 2 {
		t.Fatalf("expected 2 distinct runs, profile stage missed %d times", got)
	}
	if got := r.Pipeline().CachedArtifacts(); got != 2 {
		t.Fatalf("expected 2 cached profiles, store holds %d artifacts", got)
	}
	// A second pass is all cache hits; it must not error or re-run.
	if err := r.WarmAll(context.Background(), specs, 2); err != nil {
		t.Fatalf("second WarmAll: %v", err)
	}
	if got := r.Pipeline().Metrics().Stage(pipeline.StageProfile).Misses; got != 2 {
		t.Fatalf("second warm-up re-ran the pipeline: %d misses", got)
	}
}

func TestWarmAllPropagatesError(t *testing.T) {
	r := NewRunner(1)
	err := r.WarmAll(context.Background(), []Spec{{"cactus", 8}, {"no-such-app", 8}}, 2)
	if err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestWarmAllHonorsCancellation(t *testing.T) {
	r := NewRunner(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.WarmAll(ctx, PaperSpecs(), 2)
	if err == nil {
		t.Fatal("expected error from canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
