// Package experiments regenerates every table and figure of the paper's
// evaluation from the application skeletons, and adds the ablations
// DESIGN.md calls out (clique mapping, fabric simulation, time-windowed
// TDC). cmd/experiments -t is their one driver.
package experiments

import (
	"context"
	"runtime"
	"sync"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/topology"
	"github.com/hfast-sim/hfast/internal/trace"
)

// PaperProcs are the two concurrencies the paper evaluates throughout.
var PaperProcs = []int{64, 256}

// PaperApps lists the six Table 2 skeletons in paper order.
var PaperApps = apps.Names()

// Spec identifies one application profile by app name and world size.
type Spec struct {
	App   string
	Procs int
}

// PaperSpecs returns the twelve app x size profiles behind the paper's
// tables and figures (six applications at both paper concurrencies).
func PaperSpecs() []Spec {
	specs := make([]Spec, 0, len(PaperApps)*len(PaperProcs))
	for _, app := range PaperApps {
		for _, p := range PaperProcs {
			specs = append(specs, Spec{App: app, Procs: p})
		}
	}
	return specs
}

// Runner resolves application profiles and the analysis artifacts
// derived from them through one shared internal/pipeline store, so one
// process can regenerate many tables and figures without re-running
// skeletons or re-deriving graphs/assignments. Concurrent requests for
// the same artifact coalesce onto a single computation.
type Runner struct {
	steps int
	pipe  *pipeline.Pipeline
}

// NewRunner creates a runner over a store of its own; steps ≤ 0 uses the
// skeleton default.
func NewRunner(steps int) *Runner {
	// The paper grid is 12 profiles; the derived graph, assignment,
	// comparison, window, netsim and replan-replay artifacts multiply
	// that by the stage count. 512 holds every artifact of a full
	// regeneration (95 of them).
	return RunnerOn(pipeline.New(pipeline.Options{CacheEntries: 512}), steps)
}

// RunnerOn creates a runner over a store the caller already serves from:
// hfastd -prewarm warms the server's own pipeline through it, so a warmed
// profile is held once and found by the requests that ask for it.
func RunnerOn(pipe *pipeline.Pipeline, steps int) *Runner {
	return &Runner{steps: steps, pipe: pipe}
}

// Pipeline exposes the underlying artifact store (e.g. to inspect stage
// metrics or share it with an embedding service).
func (r *Runner) Pipeline() *pipeline.Pipeline { return r.pipe }

func (r *Runner) ref(app string, procs int) pipeline.ProfileRef {
	return pipeline.Spec(pipeline.ProfileSpec{App: app, Procs: procs, Steps: r.steps})
}

// Profile returns the (cached) profile of an application at a size.
func (r *Runner) Profile(app string, procs int) (*ipm.Profile, error) {
	return r.ProfileContext(context.Background(), app, procs)
}

// ProfileContext is Profile with cancellation. A duplicate of an
// in-flight run waits for that run rather than recomputing; if ctx ends
// first the caller gets ctx.Err() while the run itself continues for any
// remaining waiter. Errors are never cached.
func (r *Runner) ProfileContext(ctx context.Context, app string, procs int) (*ipm.Profile, error) {
	p, _, err := r.pipe.Profile(ctx, r.ref(app, procs))
	return p, err
}

// Graph returns the steady-state traffic graph of an application profile.
func (r *Runner) Graph(app string, procs int) (*topology.Graph, error) {
	g, _, err := r.pipe.Graph(context.Background(), r.ref(app, procs), pipeline.Steady())
	return g, err
}

// Assignment returns the HFAST provisioning of the steady-state graph
// (cutoff/blockSize 0 select the defaults).
func (r *Runner) Assignment(app string, procs, cutoff, blockSize int) (*hfast.Assignment, error) {
	a, _, err := r.pipe.Assignment(context.Background(), r.ref(app, procs), pipeline.Steady(), cutoff, blockSize)
	return a, err
}

// Comparison returns the cost-model comparison of the provisioned fabric
// against the fat-tree baseline.
func (r *Runner) Comparison(app string, procs, cutoff int, params hfast.Params) (hfast.Comparison, error) {
	cmp, _, err := r.pipe.Comparison(context.Background(), r.ref(app, procs), pipeline.Steady(), cutoff, params)
	return cmp, err
}

// Replay folds an application profile's step windows through a fresh
// stream at the analysis cutoff (0 selects the default): the run's
// windows, phases and reconfiguration opportunity.
func (r *Runner) Replay(app string, procs, cutoff int) (*trace.StreamState, error) {
	p, err := r.Profile(app, procs)
	if err != nil {
		return nil, err
	}
	return trace.Replay(p, "step", cutoff)
}

// Netsim replays the application's steady-state traffic on the named
// fabric model (pipeline.FabricHFAST/FabricFCN/FabricMesh).
func (r *Runner) Netsim(app string, procs int, fabric string) (*pipeline.FabricResult, error) {
	res, _, err := r.pipe.Netsim(context.Background(), r.ref(app, procs), fabric)
	return res, err
}

// WarmAll computes the given profiles concurrently on a bounded worker
// pool (workers ≤ 0 selects GOMAXPROCS), coalescing duplicates through
// the pipeline's in-flight table. Profiles are per-rank deterministic, so
// a parallel warm-up is byte-identical to serial runs — only wall-clock
// changes. The first error cancels the remaining work and is returned.
func (r *Runner) WarmAll(ctx context.Context, specs []Spec, workers int) error {
	if len(specs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan Spec)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if _, err := r.ProfileContext(ctx, s.App, s.Procs); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
feed:
	for _, s := range specs {
		select {
		case work <- s:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
