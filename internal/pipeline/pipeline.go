// Package pipeline unifies the repository's analysis chain behind one
// content-addressed artifact store. The paper's whole contribution is a
// single repeated pipeline — profile an application skeleton under the
// IPM collector, build its traffic graph, threshold at the TDC cutoff,
// provision an HFAST assignment, and cost/simulate the result — and every
// layer of this repo (the hfastd service, the experiments runner, the
// CLIs, the public facade) needs some prefix of it.
//
// Each stage artifact is keyed by a canonical hash of its inputs:
//
//	Profile    app/procs/steps/scale/seed  (or the blob hash of an
//	           uploaded profile)
//	Graph      profile key + region filter
//	Assignment graph key + cutoff + block size
//	Plan       assignment key (adds the physical wiring)
//	Comparison assignment key + cost params
//	Netsim     graph key + fabric + block size
//
// All stages resolve through one context-aware, singleflight-coalescing,
// size-bounded LRU: concurrent requests for the same artifact run the
// computation exactly once, results are shared by pointer until evicted,
// and a stage abandoned by every waiter is cancelled. Per-stage hit/miss/
// coalesce/latency counters are exposed in Prometheus text format for the
// hfastd /metrics endpoint.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Stage names, used as cache-key prefixes and metric labels.
const (
	StageProfile = "profile"
	StageGraph   = "graph"
	StageAssign  = "assign"
	StagePlan    = "plan"
	StageCompare = "compare"
	StageNetsim  = "netsim"
)

// Key is a stage-scoped content address: the stage name plus a SHA-256
// prefix of the canonical JSON encoding of the stage inputs. Equal inputs
// hash equally (struct field order is fixed), so every consumer that asks
// for the same artifact resolves to the same cache slot.
type Key string

func keyOf(stage string, v any) Key {
	b, err := json.Marshal(v)
	if err != nil {
		// Stage inputs are plain data; this cannot fail in practice.
		b = []byte(fmt.Sprintf("%+v", v))
	}
	sum := sha256.Sum256(b)
	return Key(stage + ":" + hex.EncodeToString(sum[:12]))
}

// Runner executes one profiling run; injectable so services can count,
// pace, and fake pipeline executions.
type Runner func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error)

// Options tunes a Pipeline. Zero values select the defaults.
type Options struct {
	// CacheEntries bounds the artifact LRU (default: 256 artifacts
	// across all stages).
	CacheEntries int
	// Runner overrides the profile-stage executor (default:
	// apps.ProfileRunContext); its errors reach every waiter %w-wrapped.
	Runner Runner
	// Filler, when set, is consulted between an LRU miss and the local
	// build: it may return the serialized artifact from a cheaper source
	// (a peer replica's cache). Any Fill error falls back to the local
	// build, so a filler can only make requests faster, never fail them.
	Filler Filler
}

// Pipeline is the staged artifact store. Create with New; a Pipeline is
// safe for concurrent use and intended to be shared process-wide.
type Pipeline struct {
	opts    Options
	cache   *cache
	metrics *Metrics
}

// New creates a pipeline with the given options.
func New(opts Options) *Pipeline {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.Runner == nil {
		opts.Runner = apps.ProfileRunContext
	}
	m := newMetrics()
	return &Pipeline{opts: opts, cache: newCache(opts.CacheEntries, m), metrics: m}
}

// Metrics exposes the per-stage counters.
func (pl *Pipeline) Metrics() *Metrics { return pl.metrics }

// Drain blocks until every in-flight stage computation has finished; used
// by graceful shutdown after new requests are already being refused.
func (pl *Pipeline) Drain() { pl.cache.wait() }

// CachedArtifacts reports the number of completed artifacts resident in
// the LRU (all stages combined).
func (pl *Pipeline) CachedArtifacts() int { return pl.cache.len() }

// --- profile references ---

// ProfileSpec identifies one application skeleton run — the cache
// identity of the Profile stage.
type ProfileSpec struct {
	App   string `json:"app"`
	Procs int    `json:"procs"`
	Steps int    `json:"steps"`
	Scale int    `json:"scale"`
	Seed  int64  `json:"seed"`
}

func (s ProfileSpec) config() apps.Config {
	return apps.Config{Procs: s.Procs, Steps: s.Steps, Scale: s.Scale, Seed: s.Seed}
}

func (s ProfileSpec) String() string { return fmt.Sprintf("%s/%d", s.App, s.Procs) }

// ProfileRef names the upstream profile of a stage request: either a spec
// the pipeline runs (and caches) itself, or a supplied in-memory profile
// content-addressed by its canonical encoding.
type ProfileRef struct {
	key  Key
	spec *ProfileSpec
	prof *ipm.Profile
}

// Spec returns a reference to the profile of an application run the
// pipeline will execute on demand.
func Spec(s ProfileSpec) ProfileRef {
	return ProfileRef{key: keyOf(StageProfile, s), spec: &s}
}

// Supplied returns a reference to an already-materialized profile (an
// upload, a file, a test fixture), content-addressed by the SHA-256 of
// its canonical JSON encoding so identical uploads share downstream
// artifacts.
func Supplied(p *ipm.Profile) (ProfileRef, error) {
	h := sha256.New() // fed in the writer's chunks: the encoding is never held whole
	if err := p.WriteJSON(h); err != nil {
		return ProfileRef{}, fmt.Errorf("pipeline: encoding supplied profile: %w", err)
	}
	sum := h.Sum(nil)
	return ProfileRef{key: Key("profile-blob:" + hex.EncodeToString(sum[:12])), prof: p}, nil
}

// Key is the content address of the referenced profile artifact.
func (r ProfileRef) Key() Key { return r.key }

// recipe starts a stage recipe rooted at this profile reference.
func (r ProfileRef) recipe(stage string) Recipe {
	return Recipe{Stage: stage, ProfileKey: r.key, Spec: r.spec}
}

func (r ProfileRef) describe() string {
	if r.spec != nil {
		return r.spec.String()
	}
	return fmt.Sprintf("%s/%d (supplied)", r.prof.App, r.prof.Procs)
}

// Steady is ipm.SteadyState, every region but initialization: the
// paper's default.
func Steady() ipm.RegionFilter { return ipm.SteadyState }

// --- stages ---

// get is the one path of a stage request. It checks and normalizes the
// recipe, derives its content address and consults the cache (with
// in-flight coalescing); on a miss it tries the Filler (peer fill) before
// the local build, and it asserts the artifact's type. The fill decision
// is captured from the caller's context before the flight detaches it, so
// LocalOnly requests — a replica serving a peer — never re-forward the
// key they are being asked for. A corrupt or undecodable peer artifact
// silently falls back to the local build.
func get[T any](ctx context.Context, pl *Pipeline, ref ProfileRef, r Recipe) (T, Outcome, error) {
	var zero T
	rec, err := r.normalized()
	if err != nil {
		return zero, Miss, err
	}
	key := rec.key()
	fill := pl.opts.Filler != nil && rec.Fillable() && !isLocalOnly(ctx)
	v, how, err := pl.cache.do(ctx, rec.Stage, key, func(fctx context.Context) (any, error) {
		if fill {
			if data, ferr := pl.opts.Filler.Fill(fctx, key, rec); ferr == nil {
				if v, derr := decodeArtifact(rec.Stage, data, rec.Spec.Procs); derr == nil {
					return v, nil
				}
			}
		}
		return pl.build(fctx, ref, rec)
	})
	if err != nil {
		return zero, how, err
	}
	return v.(T), how, nil
}

// build makes the artifact of a checked recipe on a miss no peer filled.
// Upstream artifacts come through their stage methods, so each is a stage
// request of its own, cached and coalesced in its own slot. Their errors
// pass as they are; the stage's own errors name the stage and the run.
func (pl *Pipeline) build(ctx context.Context, ref ProfileRef, rec Recipe) (any, error) {
	var (
		v    any
		prof *ipm.Profile
		g    *topology.Graph
		a    *hfast.Assignment
		err  error
	)
	// Assign and compare build from one upstream artifact alone; every
	// other stage but the profile reads the profile.
	if rec.Stage != StageProfile && rec.Stage != StageAssign && rec.Stage != StageCompare {
		if prof, _, err = pl.Profile(ctx, ref); err != nil {
			return nil, err
		}
	}
	what, on := rec.Stage, ""
	switch rec.Stage {
	case StageProfile:
		v, err = pl.opts.Runner(ctx, ref.spec.App, ref.spec.config())
	case StageGraph:
		v, err = topology.FromProfile(prof, rec.Filter)
	case StageAssign:
		if g, _, err = pl.Graph(ctx, ref, rec.Filter); err != nil {
			return nil, err
		}
		v, err = hfast.Assign(g, rec.Cutoff, rec.BlockSize)
	case StagePlan:
		if a, _, err = pl.Assignment(ctx, ref, rec.Filter, rec.Cutoff, rec.BlockSize); err != nil {
			return nil, err
		}
		what = "wire"
		v, err = newPlan(prof.App, prof.Procs, a)
	case StageCompare:
		if a, _, err = pl.Assignment(ctx, ref, rec.Filter, rec.Cutoff, rec.Params.BlockSize); err != nil {
			return nil, err
		}
		v, err = hfast.Compare(a, *rec.Params)
	case StageNetsim:
		if g, _, err = pl.Graph(ctx, ref, rec.Filter); err != nil {
			return nil, err
		}
		if rec.Fabric == FabricHFAST {
			if a, _, err = pl.Assignment(ctx, ref, rec.Filter, 0, hfast.DefaultBlockSize); err != nil {
				return nil, err
			}
		}
		on = " on " + rec.Fabric
		v, err = replay(rec.Fabric, prof, g, a)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s %s%s: %w", what, ref.describe(), on, err)
	}
	return v, nil
}

// Profile resolves the referenced profile, running the skeleton under the
// runner on a miss. A supplied reference returns its in-memory profile
// directly.
func (pl *Pipeline) Profile(ctx context.Context, ref ProfileRef) (*ipm.Profile, Outcome, error) {
	if ref.prof != nil {
		return ref.prof, Hit, nil
	}
	return get[*ipm.Profile](ctx, pl, ref, ref.recipe(StageProfile))
}

// Graph resolves the communication-topology graph of the referenced
// profile under the region filter.
func (pl *Pipeline) Graph(ctx context.Context, ref ProfileRef, f ipm.RegionFilter) (*topology.Graph, Outcome, error) {
	rec := ref.recipe(StageGraph)
	rec.Filter = f
	return get[*topology.Graph](ctx, pl, ref, rec)
}

// Assignment resolves the paper's linear-time switch-block provisioning
// of the filtered graph at the cutoff (DefaultCutoff when 0) and block
// size (DefaultBlockSize when 0).
func (pl *Pipeline) Assignment(ctx context.Context, ref ProfileRef, f ipm.RegionFilter, cutoff, blockSize int) (*hfast.Assignment, Outcome, error) {
	rec := ref.recipe(StageAssign)
	rec.Filter, rec.Cutoff, rec.BlockSize = f, cutoff, blockSize
	return get[*hfast.Assignment](ctx, pl, ref, rec)
}

// Plan is an assignment plus its physical circuit-switch wiring — the
// artifact an operator hands to the control plane.
type Plan struct {
	App        string
	Procs      int
	Assignment *hfast.Assignment
	Wiring     *hfast.Wiring
	// Summary holds the figures every rendering of the plan reports. A
	// plan is immutable once built, so they are worked out with it and a
	// cached plan is served without analysing it again.
	Summary PlanSummary
}

// PlanSummary is what Assignment.Ports, Assignment.MaxRoute,
// CircuitSwitch.Ports and CircuitSwitch.LitPorts return for a plan.
type PlanSummary struct {
	Ports       hfast.PortUsage
	MaxRoute    hfast.Route
	SwitchPorts int
	LitPorts    int
}

// newPlan wires the assignment and summarises the result. Both ways a
// plan comes into being — the plan stage's build and DecodeArtifact — go
// through it, so a peer-filled plan carries what a local one does.
func newPlan(app string, procs int, a *hfast.Assignment) (*Plan, error) {
	w, err := hfast.Wire(a)
	if err != nil {
		return nil, err
	}
	return &Plan{App: app, Procs: procs, Assignment: a, Wiring: w, Summary: PlanSummary{
		Ports:       a.Ports(),
		MaxRoute:    a.MaxRoute(),
		SwitchPorts: w.Switch.Ports(),
		LitPorts:    w.Switch.LitPorts(),
	}}, nil
}

// Plan resolves the full wiring plan for the referenced profile.
func (pl *Pipeline) Plan(ctx context.Context, ref ProfileRef, f ipm.RegionFilter, cutoff, blockSize int) (*Plan, Outcome, error) {
	rec := ref.recipe(StagePlan)
	rec.Filter, rec.Cutoff, rec.BlockSize = f, cutoff, blockSize
	return get[*Plan](ctx, pl, ref, rec)
}

// Comparison resolves the cost-model comparison of the provisioned fabric
// against the fat-tree baseline. The assignment uses params.BlockSize
// (DefaultBlockSize when 0).
func (pl *Pipeline) Comparison(ctx context.Context, ref ProfileRef, f ipm.RegionFilter, cutoff int, params hfast.Params) (hfast.Comparison, Outcome, error) {
	rec := ref.recipe(StageCompare)
	rec.Filter, rec.Cutoff, rec.Params = f, cutoff, &params
	return get[hfast.Comparison](ctx, pl, ref, rec)
}

// Derived resolves a consumer-defined artifact through the same
// content-addressed cache: stage labels the metrics series, inputs is
// hashed into the key, and fn builds the artifact on a miss. Use it for
// response shapes composed from several stage artifacts that should still
// coalesce and cache as one unit.
func (pl *Pipeline) Derived(ctx context.Context, stage string, inputs any, fn func(context.Context) (any, error)) (any, Outcome, error) {
	return pl.cache.do(ctx, stage, keyOf(stage, inputs), fn)
}
