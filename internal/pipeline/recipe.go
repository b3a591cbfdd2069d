package pipeline

import (
	"context"
	"fmt"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// A Recipe is the portable description of one stage request: everything a
// replica needs to (a) derive the stage's content address and (b) rebuild
// the artifact from scratch. It is the body of the peer-fill protocol's
// /internal/artifact requests — a replica that misses locally sends the
// recipe to the key's ring owner, and the owner resolves it through its
// own pipeline (building on a cold cache), so a hot cold key is built
// exactly once cluster-wide.
//
// Recipes referencing a supplied (uploaded) profile carry no Spec and are
// not fillable: only the uploading replica holds the blob.
type Recipe struct {
	// Stage names the artifact's pipeline stage (StageProfile … StageNetsim).
	Stage string `json:"stage"`
	// ProfileKey is the content address of the upstream profile.
	ProfileKey Key `json:"profile_key"`
	// Spec reproduces the profile run; nil for supplied profiles.
	Spec *ProfileSpec `json:"spec,omitempty"`
	// Filter is the region filter, encoded as its canonical name
	// (graph-derived stages).
	Filter ipm.RegionFilter `json:"filter,omitempty"`
	// Cutoff and BlockSize are the provisioning parameters; zero selects
	// the default, so a hand-built recipe with zeros addresses the
	// defaults' artifact.
	Cutoff    int `json:"cutoff,omitempty"`
	BlockSize int `json:"block_size,omitempty"`
	// Fabric names the simulated fabric (Netsim stage).
	Fabric string `json:"fabric,omitempty"`
	// Params are the cost-model parameters (Compare stage).
	Params *hfast.Params `json:"params,omitempty"`
}

// Fillable reports whether a peer can rebuild this artifact: it must name
// a runnable profile spec (supplied-profile blobs exist only locally).
func (r Recipe) Fillable() bool { return r.Spec != nil }

// Key checks the recipe and derives its content address. Stage requests
// and the peer-fill protocol derive keys the same way, so a key computed
// on one replica addresses the same artifact on every other.
func (r Recipe) Key() (Key, error) {
	n, err := r.normalized()
	if err != nil {
		return "", err
	}
	return n.key(), nil
}

// normalized is the one check of a stage request, made before anything
// resolves: it refuses a recipe with no profile key, an unknown stage,
// filter or fabric, a negative cutoff, or a compare stage without
// params, and fills in the default cutoff and block size of the stages
// that use them.
func (r Recipe) normalized() (Recipe, error) {
	if r.ProfileKey == "" {
		return r, fmt.Errorf("pipeline: recipe for stage %q has no profile key", r.Stage)
	}
	if r.Cutoff < 0 {
		return r, fmt.Errorf("pipeline: negative cutoff %d", r.Cutoff)
	}
	switch r.Stage {
	case StageProfile:
		return r, nil
	case StageGraph, StageAssign, StagePlan, StageCompare, StageNetsim:
	default:
		return r, fmt.Errorf("pipeline: unknown stage %q", r.Stage)
	}
	// A filter is keyed by its canonical name, so the zero filter, which
	// selects what AllRegions does, is refused rather than given a second
	// address.
	if !r.Filter.Named() {
		return r, fmt.Errorf("pipeline: unknown filter %q", r.Filter)
	}
	switch r.Stage {
	case StageAssign, StagePlan:
		r.Cutoff = normCutoff(r.Cutoff)
		if r.BlockSize == 0 {
			r.BlockSize = hfast.DefaultBlockSize
		}
	case StageCompare:
		if r.Params == nil {
			return r, fmt.Errorf("pipeline: compare recipe has no params")
		}
		r.Cutoff = normCutoff(r.Cutoff)
		if r.Params.BlockSize == 0 {
			p := *r.Params
			p.BlockSize = hfast.DefaultBlockSize
			r.Params = &p
		}
	case StageNetsim:
		if r.Fabric != FabricHFAST && r.Fabric != FabricFCN && r.Fabric != FabricMesh {
			return r, fmt.Errorf("pipeline: unknown fabric %q", r.Fabric)
		}
	}
	return r, nil
}

// normCutoff mirrors hfast.Assign's zero handling so cutoff 0 and the
// explicit default address the same artifact.
func normCutoff(c int) int {
	if c == 0 {
		return topology.DefaultCutoff
	}
	return c
}

type graphInputs struct {
	Profile Key              `json:"profile"`
	Filter  ipm.RegionFilter `json:"filter"`
}

type assignInputs struct {
	Graph     Key `json:"graph"`
	Cutoff    int `json:"cutoff"`
	BlockSize int `json:"block_size"`
}

type planInputs struct {
	Assign Key `json:"assign"`
}

type compareInputs struct {
	Assign Key          `json:"assign"`
	Params hfast.Params `json:"params"`
}

// key derives a normalized recipe's content address.
func (r Recipe) key() Key {
	if r.Stage == StageProfile {
		return r.ProfileKey
	}
	graphKey := keyOf(StageGraph, graphInputs{r.ProfileKey, r.Filter})
	assign := assignInputs{graphKey, r.Cutoff, r.BlockSize}
	switch r.Stage {
	case StageAssign:
		return keyOf(StageAssign, assign)
	case StagePlan:
		return keyOf(StagePlan, planInputs{keyOf(StageAssign, assign)})
	case StageCompare:
		assign.BlockSize = r.Params.BlockSize
		return keyOf(StageCompare, compareInputs{keyOf(StageAssign, assign), *r.Params})
	case StageNetsim:
		return keyOf(StageNetsim, netsimInputs{graphKey, r.Fabric, hfast.DefaultBlockSize})
	}
	return graphKey
}

// Filler fills a stage-cache miss from somewhere cheaper than a local
// build — in practice internal/cluster's peer-fill coordinator, which
// fetches the serialized artifact from the key's ring owner. Fill returns
// the artifact's wire bytes on success; any error (key locally owned,
// peer miss, timeout, ring churn) makes the pipeline fall back to a local
// build, so peers can only ever make a request faster, never fail it.
type Filler interface {
	Fill(ctx context.Context, key Key, r Recipe) ([]byte, error)
}

// localOnlyKey marks a context whose top-level stage resolution must not
// consult the Filler.
type localOnlyKey struct{}

// LocalOnly returns a context that disables peer fill for the top-level
// stage resolved under it. The /internal/artifact handler serves peers
// under this context so an artifact request is never re-forwarded: the
// requested key always resolves to a local build on the serving replica
// (upstream stage artifacts may still fill from their own owners — the
// stage graph is acyclic, so forwarding depth is bounded by its depth).
func LocalOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, localOnlyKey{}, true)
}

func isLocalOnly(ctx context.Context) bool {
	v, _ := ctx.Value(localOnlyKey{}).(bool)
	return v
}

// Resolve executes a peer's recipe through the staged store — the serving
// half of the peer-fill protocol — once it names the spec its profile key
// is derived from (supplied-profile artifacts cannot be rebuilt remotely).
func (pl *Pipeline) Resolve(ctx context.Context, r Recipe) (any, Outcome, error) {
	if r.Spec == nil {
		return nil, Miss, fmt.Errorf("pipeline: recipe for stage %q names no profile spec", r.Stage)
	}
	ref := Spec(*r.Spec)
	if r.ProfileKey != "" && ref.Key() != r.ProfileKey {
		return nil, Miss, fmt.Errorf("pipeline: recipe profile key %s does not match its spec (%s)", r.ProfileKey, ref.Key())
	}
	return get[any](ctx, pl, ref, r)
}
