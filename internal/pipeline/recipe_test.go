package pipeline

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// refusedRecipe is a recipe the check turns away and the start of the
// error it gives.
type refusedRecipe struct {
	rec  Recipe
	want string
}

// refusedRecipes all name a valid cactus P=8 profile, so only the field
// under test is wrong.
func refusedRecipes() []refusedRecipe {
	spec := ProfileSpec{App: "cactus", Procs: 8, Steps: 1}
	key := Spec(spec).Key()
	params := hfast.DefaultParams()
	return []refusedRecipe{
		{Recipe{Stage: "nope", ProfileKey: key, Spec: &spec, Filter: "steady"}, `pipeline: unknown stage "nope"`},
		{Recipe{Stage: StageGraph, ProfileKey: key, Spec: &spec, Filter: "some"}, `pipeline: unknown filter "some"`},
		{Recipe{Stage: StageAssign, ProfileKey: key, Spec: &spec}, `pipeline: unknown filter ""`},
		{Recipe{Stage: StageNetsim, ProfileKey: key, Spec: &spec, Filter: "steady", Fabric: "nope"}, `pipeline: unknown fabric "nope"`},
		{Recipe{Stage: StageCompare, ProfileKey: key, Spec: &spec, Filter: "steady"}, "pipeline: compare recipe has no params"},
		{Recipe{Stage: StageAssign, ProfileKey: key, Spec: &spec, Filter: "steady", Cutoff: -1}, "pipeline: negative cutoff -1"},
		{Recipe{Stage: StagePlan, ProfileKey: key, Spec: &spec, Filter: "steady", Cutoff: -2048}, "pipeline: negative cutoff -2048"},
		{Recipe{Stage: StageCompare, ProfileKey: key, Spec: &spec, Filter: "steady", Cutoff: -1, Params: &params}, "pipeline: negative cutoff -1"},
		{Recipe{Stage: StageGraph, Spec: &spec, Filter: "steady"}, `pipeline: recipe for stage "graph" has no profile key`},
	}
}

// TestBadRecipesRunNothing: a request the recipe check refuses fails
// before its profile stage runs, whether it comes as a peer's recipe
// (Resolve), through a stage method, or as a fold seed, and it leaves
// nothing in the cache.
func TestBadRecipesRunNothing(t *testing.T) {
	var runs atomic.Int64
	pl := New(Options{Runner: func(ctx context.Context, app string, cfg apps.Config) (*ipm.Profile, error) {
		runs.Add(1)
		return apps.ProfileRunContext(ctx, app, cfg)
	}})
	ctx := context.Background()
	ref := Spec(ProfileSpec{App: "cactus", Procs: 8, Steps: 1})
	params := hfast.DefaultParams()
	errOf := func(_ any, _ Outcome, err error) error { return err }

	type refusal struct {
		name string
		err  error
		want string
	}
	cases := []refusal{
		{"Netsim on an unknown fabric", errOf(pl.Netsim(ctx, ref, "nope")), `pipeline: unknown fabric "nope"`},
		{"Graph under the zero filter", errOf(pl.Graph(ctx, ref, "")), `pipeline: unknown filter ""`},
		{"Assignment at a negative cutoff", errOf(pl.Assignment(ctx, ref, Steady(), -1, 0)), "pipeline: negative cutoff -1"},
		{"Plan at a negative cutoff", errOf(pl.Plan(ctx, ref, Steady(), -1, 0)), "pipeline: negative cutoff -1"},
		{"Comparison at a negative cutoff", errOf(pl.Comparison(ctx, ref, Steady(), -1, params)), "pipeline: negative cutoff -1"},
	}
	for _, rc := range refusedRecipes() {
		cases = append(cases, refusal{"Resolve " + rc.rec.Stage, errOf(pl.Resolve(ctx, rc.rec)), rc.want})
	}
	_, _, _, err := pl.FoldInit(ctx, FoldSeed{Procs: 8, Cutoff: -1})
	cases = append(cases, refusal{"FoldInit at a negative cutoff", err, "pipeline: negative cutoff -1"})

	for _, tc := range cases {
		if tc.err == nil || !strings.HasPrefix(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one starting %q", tc.name, tc.err, tc.want)
		}
	}
	pl.Drain()
	if n := runs.Load(); n != 0 {
		t.Errorf("refused requests ran %d skeletons, want 0", n)
	}
	if n := pl.CachedArtifacts(); n != 0 {
		t.Errorf("refused requests left %d artifacts in the cache, want 0", n)
	}
}

// FuzzRecipe holds the recipe check and key derivation to any bytes a
// peer can POST to /internal/artifact: neither panics, and a recipe Key
// accepts keeps its key through the wire, both as sent and as the
// normalized form a replica forwards to its peers.
func FuzzRecipe(f *testing.F) {
	spec := ProfileSpec{App: "gtc", Procs: 64, Steps: 2}
	key := Spec(spec).Key()
	params := hfast.DefaultParams()
	for _, rec := range []Recipe{
		{Stage: StageProfile, ProfileKey: key, Spec: &spec},
		{Stage: StageGraph, ProfileKey: key, Spec: &spec, Filter: "steady"},
		{Stage: StageAssign, ProfileKey: key, Spec: &spec, Filter: "steady"},
		{Stage: StagePlan, ProfileKey: key, Spec: &spec, Filter: "steady"},
		{Stage: StageCompare, ProfileKey: key, Spec: &spec, Filter: "steady", Params: &params},
		{Stage: StageNetsim, ProfileKey: key, Spec: &spec, Filter: "steady", Fabric: FabricHFAST},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, rc := range refusedRecipes() {
		b, err := json.Marshal(rc.rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"stage":"profile","profile_key":"profile:x","spec":{"app":"cactus","procs":1099511627776,"steps":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Recipe
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		key, err := rec.Key()
		if err != nil {
			return
		}
		norm, err := rec.normalized()
		if err != nil {
			t.Fatalf("Key accepted %s, the check refuses it: %v", data, err)
		}
		for _, sent := range []Recipe{rec, norm} {
			b, err := json.Marshal(sent)
			if err != nil {
				t.Fatalf("encoding %+v: %v", sent, err)
			}
			var back Recipe
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("decoding %s: %v", b, err)
			}
			if got, err := back.Key(); err != nil || got != key {
				t.Fatalf("%s re-encoded as %s derives %q, %v; want %q", data, b, got, err, key)
			}
		}
	})
}

// TestRegionFilterKeys pins the content addresses a region filter gives
// the graph and plan of one profile spec: a filter is keyed by its
// canonical name, so these keys are the ones every replica, cache and
// peer-fill request has derived since the name was first hashed.
func TestRegionFilterKeys(t *testing.T) {
	ref := Spec(ProfileSpec{App: "cactus", Procs: 64})
	for _, c := range []struct {
		filter      ipm.RegionFilter
		graph, plan Key
	}{
		{ipm.SteadyState, "graph:f7e90f61324486f8862706e9", "plan:a4a0a0f51751e77d037531ed"},
		{ipm.AllRegions, "graph:38eae153d193ce91ef57cb70", "plan:158684d05e1a1b5526f4527e"},
		{ipm.Region("step000"), "graph:4936a56c202410e312ddac2f", "plan:d35eea6028e50adfbb58b9db"},
	} {
		for stage, want := range map[string]Key{StageGraph: c.graph, StagePlan: c.plan} {
			rec := ref.recipe(stage)
			rec.Filter = c.filter
			if got, err := rec.Key(); err != nil || got != want {
				t.Errorf("%s %s key = %q, %v; want %q", c.filter, stage, got, err, want)
			}
		}
	}
}
