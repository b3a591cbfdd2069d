package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// TestArtifactRoundTrip is the clustered tier's wire-contract property
// test: for every application skeleton at P=64, every stage artifact
// encodes → decodes → re-encodes byte-identically. That is what makes
// a peer-filled artifact provably equivalent to a locally built one.
func TestArtifactRoundTrip(t *testing.T) {
	pl := New(Options{})
	ctx := context.Background()
	for _, app := range apps.Names() {
		t.Run(app, func(t *testing.T) {
			ref := Spec(ProfileSpec{App: app, Procs: 64, Steps: 2})
			artifacts := map[string]any{}
			var err error
			if artifacts[StageProfile], _, err = pl.Profile(ctx, ref); err != nil {
				t.Fatal(err)
			}
			if artifacts[StageGraph], _, err = pl.Graph(ctx, ref, Steady()); err != nil {
				t.Fatal(err)
			}
			if artifacts[StageAssign], _, err = pl.Assignment(ctx, ref, Steady(), 0, 0); err != nil {
				t.Fatal(err)
			}
			if artifacts[StagePlan], _, err = pl.Plan(ctx, ref, Steady(), 0, 0); err != nil {
				t.Fatal(err)
			}
			if artifacts[StageCompare], _, err = pl.Comparison(ctx, ref, Steady(), 0, hfast.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			if artifacts[StageNetsim], _, err = pl.Netsim(ctx, ref, FabricHFAST); err != nil {
				t.Fatal(err)
			}
			for stage, v := range artifacts {
				first, err := EncodeArtifact(stage, v)
				if err != nil {
					t.Fatalf("%s: encode: %v", stage, err)
				}
				back, err := DecodeArtifact(stage, first)
				if err != nil {
					t.Fatalf("%s: decode: %v", stage, err)
				}
				second, err := EncodeArtifact(stage, back)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", stage, err)
				}
				if !bytes.Equal(first, second) {
					t.Errorf("%s: round trip not byte-identical (%d vs %d bytes)", stage, len(first), len(second))
				}
			}
		})
	}
}

// TestPlanRoundTripRederivesWiring pins the plan wire form's space
// optimization: the wiring is omitted on the wire and deterministically
// re-derived, so the decoded plan carries an equivalent circuit switch.
func TestPlanRoundTripRederivesWiring(t *testing.T) {
	pl := New(Options{})
	ref := Spec(ProfileSpec{App: "lbmhd", Procs: 64, Steps: 2})
	plan, _, err := pl.Plan(context.Background(), ref, Steady(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeArtifact(StagePlan, plan)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeArtifact(StagePlan, data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*Plan)
	if back.Wiring == nil {
		t.Fatal("decoded plan has no wiring")
	}
	if got, want := back.Wiring.Switch.LitPorts(), plan.Wiring.Switch.LitPorts(); got != want {
		t.Errorf("re-derived wiring lights %d ports, original %d", got, want)
	}
	if got, want := back.Wiring.Switch.Ports(), plan.Wiring.Switch.Ports(); got != want {
		t.Errorf("re-derived switch has %d ports, original %d", got, want)
	}
}

// TestRecipeKeyAgreement pins the key derivation contract: a recipe
// resolved through Resolve (the peer-fill serving path) lands in the
// same cache slot the native stage methods use, so fill keys and local
// keys always agree.
func TestRecipeKeyAgreement(t *testing.T) {
	pl := New(Options{})
	ctx := context.Background()
	spec := ProfileSpec{App: "gtc", Procs: 64, Steps: 2}
	ref := Spec(spec)
	params := hfast.DefaultParams()
	recipes := []Recipe{
		{Stage: StageProfile, ProfileKey: ref.Key(), Spec: &spec},
		{Stage: StageGraph, ProfileKey: ref.Key(), Spec: &spec, Filter: "steady"},
		{Stage: StageAssign, ProfileKey: ref.Key(), Spec: &spec, Filter: "steady"},
		{Stage: StagePlan, ProfileKey: ref.Key(), Spec: &spec, Filter: "steady"},
		{Stage: StageCompare, ProfileKey: ref.Key(), Spec: &spec, Filter: "steady", Params: &params},
		{Stage: StageNetsim, ProfileKey: ref.Key(), Spec: &spec, Filter: "steady", Fabric: FabricHFAST},
	}
	for _, rec := range recipes {
		if _, _, err := pl.Resolve(ctx, rec); err != nil {
			t.Fatalf("%s: resolve: %v", rec.Stage, err)
		}
	}
	// Every native stage call must now hit the artifact Resolve cached.
	assertHit := func(stage string, how Outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if how != Hit {
			t.Errorf("%s resolved %v after Resolve warmed it, want Hit", stage, how)
		}
	}
	_, how, err := pl.Profile(ctx, ref)
	assertHit(StageProfile, how, err)
	_, how, err = pl.Graph(ctx, ref, Steady())
	assertHit(StageGraph, how, err)
	_, how, err = pl.Assignment(ctx, ref, Steady(), 0, 0)
	assertHit(StageAssign, how, err)
	_, how, err = pl.Plan(ctx, ref, Steady(), 0, 0)
	assertHit(StagePlan, how, err)
	_, how, err = pl.Comparison(ctx, ref, Steady(), 0, hfast.DefaultParams())
	assertHit(StageCompare, how, err)
	_, how, err = pl.Netsim(ctx, ref, FabricHFAST)
	assertHit(StageNetsim, how, err)
}

// TestRecipeKeyMismatchRejected: Resolve refuses a recipe whose claimed
// profile key does not match its spec — a peer cannot poison another
// replica's cache slot with mislabeled inputs.
func TestRecipeKeyMismatchRejected(t *testing.T) {
	pl := New(Options{})
	spec := ProfileSpec{App: "lbmhd", Procs: 64, Steps: 2}
	rec := Recipe{Stage: StageGraph, ProfileKey: "profile:000000000000000000000000", Spec: &spec, Filter: "steady"}
	if _, _, err := pl.Resolve(context.Background(), rec); err == nil {
		t.Fatal("mismatched profile key accepted")
	}
}

// corruptFiller returns undecodable bytes for every fill.
type corruptFiller struct{ calls int }

func (f *corruptFiller) Fill(ctx context.Context, key Key, r Recipe) ([]byte, error) {
	f.calls++
	return []byte("not json"), nil
}

// TestCorruptFillFallsBack: a filler handing back garbage must not fail
// the request — the pipeline quietly rebuilds locally.
func TestCorruptFillFallsBack(t *testing.T) {
	f := &corruptFiller{}
	pl := New(Options{Filler: f})
	g, how, err := pl.Graph(context.Background(), Spec(ProfileSpec{App: "lbmhd", Procs: 64, Steps: 2}), Steady())
	if err != nil {
		t.Fatalf("corrupt fill failed the request: %v", err)
	}
	if how != Miss {
		t.Errorf("outcome %v, want Miss", how)
	}
	if g == nil || g.P != 64 {
		t.Errorf("fallback build returned %+v", g)
	}
	if f.calls == 0 {
		t.Error("filler was never consulted")
	}
}

// localOnlyFiller fails the test if it is ever consulted.
type localOnlyFiller struct{ t *testing.T }

func (f *localOnlyFiller) Fill(ctx context.Context, key Key, r Recipe) ([]byte, error) {
	f.t.Errorf("filler consulted for %s under LocalOnly", key)
	return nil, errors.New("no fill")
}

// TestLocalOnlyDisablesFill: the serving path's loop guard — a
// top-level stage resolved under LocalOnly never consults the filler.
func TestLocalOnlyDisablesFill(t *testing.T) {
	pl := New(Options{Filler: &localOnlyFiller{t}})
	ctx := LocalOnly(context.Background())
	ref := Spec(ProfileSpec{App: "lbmhd", Procs: 64, Steps: 2})
	if _, _, err := pl.Profile(ctx, ref); err != nil {
		t.Fatal(err)
	}
}

// stageFiller hands back body for the stage it fills and fails every
// other fill.
type stageFiller struct {
	stage string
	body  []byte
}

func (f stageFiller) Fill(ctx context.Context, key Key, r Recipe) ([]byte, error) {
	if r.Stage != f.stage {
		return nil, errors.New("no fill")
	}
	return f.body, nil
}

// starBody is a graph wire body over edges+1 ranks whose rank 0 talks to
// every other, its edges in descending j when down (which no encoder
// writes, and which inserting edge by edge pays for quadratically).
func starBody(edges int, down bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"p":%d,"edges":[`, edges+1)
	for k := 1; k <= edges; k++ {
		j := k
		if down {
			j = edges + 1 - k
		}
		if k > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"i":0,"j":%d,"vol":8,"msgs":1,"max_msg":8}`, j)
	}
	b.WriteString("]}")
	return b.String()
}

// TestFillRefusesHostileGraphs hands the fill path graph artifacts a peer
// could send: each is refused, so the request falls back to its local
// build, or decoded, within a byte ceiling. A rank count other than the
// recipe's is refused before it sizes anything; edges out of the order
// MarshalJSON writes are refused.
func TestFillRefusesHostileGraphs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const star = 50000
	errLocal := errors.New("local build")
	for _, c := range []struct {
		name    string
		procs   int
		graph   string
		refused bool
	}{
		{"p 2^40", 64, `{"p":1099511627776,"edges":[]}`, true},
		{"p 10^8", 64, `{"p":100000000,"edges":[]}`, true},
		{"p below the recipe's", 64, `{"p":8,"edges":[]}`, true},
		{"star in descending j", star + 1, starBody(star, true), true},
		{"star in ascending j", star + 1, starBody(star, false), false},
	} {
		t.Run(c.name+"/"+StageGraph, func(t *testing.T) {
			pl := New(Options{
				Filler: stageFiller{StageGraph, []byte(c.graph)},
				Runner: func(context.Context, string, apps.Config) (*ipm.Profile, error) { return nil, errLocal },
			})
			ref := Spec(ProfileSpec{App: "cactus", Procs: c.procs})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, _, err := pl.Graph(context.Background(), ref, Steady())
			runtime.ReadMemStats(&after)
			if c.refused != errors.Is(err, errLocal) {
				t.Fatalf("refused %v (err %v), want %v", !c.refused, err, c.refused)
			}
			if !c.refused && (err != nil || g.P != c.procs || g.EdgeCount() != star) {
				t.Fatalf("decoded %v, err %v; want P=%d with %d edges", g, err, c.procs, star)
			}
			// Decoding costs under ten times the body (8.6 when this was
			// set); the ranks are sized only when the recipe asked for them.
			ceiling := 10*uint64(len(c.graph)) + 24*uint64(c.procs) + 64<<10
			if n := after.TotalAlloc - before.TotalAlloc; n > ceiling {
				t.Errorf("the fill allocated %d KB for a %d KB body, over its %d KB ceiling", n>>10, len(c.graph)>>10, ceiling>>10)
			}
		})
	}
}
