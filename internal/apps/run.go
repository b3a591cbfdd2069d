package apps

import (
	"context"
	"fmt"
	"time"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// DefaultTimeout bounds a profiled skeleton run; the largest standard
// workload (PARATEC at P=256) finishes well inside it.
const DefaultTimeout = 5 * time.Minute

// ProfileRun executes the named skeleton on a fresh world under the IPM
// collector and returns the assembled profile.
func ProfileRun(name string, cfg Config) (*ipm.Profile, error) {
	return ProfileRunContext(context.Background(), name, cfg)
}

// ProfileRunContext is ProfileRun with cancellation: when ctx is done
// before the skeleton finishes, the world aborts, every rank goroutine
// unwinds, and ctx.Err() is returned (wrapped). The serving layer relies
// on this to bound profiling work per request.
func ProfileRunContext(ctx context.Context, name string, cfg Config) (*ipm.Profile, error) {
	info, params, err := resolve(name, cfg)
	if err != nil {
		return nil, err
	}
	set := ipm.NewCollectorSet(0)
	if err := info.runTraced(ctx, cfg, set.Factory); err != nil {
		return nil, err
	}
	return set.Profile(name, cfg.Procs, params), nil
}

// StreamRunContext executes the named skeleton under the streaming IPM
// collector: each completed window's delta is handed to sink as soon as
// the last rank leaves the region, while the run is still going. It
// returns the total number of deltas emitted (Finish flushes the
// outside-region remainder). This is the live producer for the hfastd
// streaming endpoint; ProfileRunContext remains the batch path.
func StreamRunContext(ctx context.Context, name string, cfg Config, sink ipm.DeltaSink) (int, error) {
	info, params, err := resolve(name, cfg)
	if err != nil {
		return 0, err
	}
	set := ipm.NewStreamSet(name, cfg.Procs, params, 0, sink)
	if err := info.runTraced(ctx, cfg, set.Factory); err != nil {
		return 0, err
	}
	return set.Finish(), nil
}

// resolve looks the skeleton up, refuses a non-positive size and works
// out the workload parameters a profile of the run records: steps and
// scale with the skeleton's defaults filled in.
func resolve(name string, cfg Config) (Info, map[string]int, error) {
	info, err := Lookup(name)
	if err != nil {
		return Info{}, nil, err
	}
	if cfg.Procs <= 0 {
		return Info{}, nil, fmt.Errorf("apps: %s: Procs must be positive, got %d", name, cfg.Procs)
	}
	full := cfg.withDefaults(info.DefaultScale)
	return info, map[string]int{"steps": full.Steps, "scale": full.Scale}, nil
}

// runTraced runs the skeleton on a fresh world of cfg.Procs ranks whose
// tracers come from factory.
func (in Info) runTraced(ctx context.Context, cfg Config, factory mpi.TracerFactory) error {
	w := mpi.NewWorld(cfg.Procs,
		mpi.WithTimeout(DefaultTimeout),
		mpi.WithCostModel(mpi.DefaultCostModel()),
		mpi.WithTracerFactory(factory))
	if err := w.RunContext(ctx, func(c *mpi.Comm) { in.Run(c, cfg) }); err != nil {
		return fmt.Errorf("apps: %s run failed: %w", in.Name, err)
	}
	return nil
}
