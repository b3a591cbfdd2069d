package apps

import (
	"context"
	"fmt"
	"time"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// DefaultTimeout is what the benchmark's untraced skeleton runs pass to
// mpi.WithTimeout. A profile run has no bound of its own: its context is
// the one (hfastd's request deadline), and the CLIs run unbounded.
const DefaultTimeout = 5 * time.Minute

// ProfileRun executes the named skeleton on a fresh world under the IPM
// collector and returns the assembled profile.
func ProfileRun(name string, cfg Config) (*ipm.Profile, error) {
	return ProfileRunContext(context.Background(), name, cfg)
}

// ProfileRunContext is ProfileRun with cancellation: when ctx is done
// before the skeleton finishes, the world aborts, every rank goroutine
// unwinds, and ctx.Err() is returned (wrapped). The serving layer relies
// on this to bound profiling work per request. The profile records the
// workload parameters the run used: steps and scale with the skeleton's
// defaults filled in.
func ProfileRunContext(ctx context.Context, name string, cfg Config) (*ipm.Profile, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("apps: %s: Procs must be positive, got %d", name, cfg.Procs)
	}
	set := ipm.NewCollectorSet(0)
	w := mpi.NewWorld(cfg.Procs,
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(set.Factory))
	if err := w.RunContext(ctx, func(c *mpi.Comm) { info.Run(c, cfg) }); err != nil {
		return nil, fmt.Errorf("apps: %s run failed: %w", info.Name, err)
	}
	full := cfg.withDefaults(info.DefaultScale)
	return set.Profile(name, cfg.Procs, map[string]int{"steps": full.Steps, "scale": full.Scale}), nil
}
