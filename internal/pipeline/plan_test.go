package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/hfast"
)

// hostilePlanBodies are plan artifacts a corrupt or hostile peer could
// answer with. Each of them used to panic inside DecodeArtifact — in Wire,
// in the circuit switch, in NewCircuitSwitch — on the flight goroutine
// nothing recovers.
var hostilePlanBodies = map[string]string{
	"tables shorter than P": `{"assignment":{"P":4,"BlockSize":16,"Partners":[[1]],"Blocks":[1]}}`,
	"no blocks for two wired nodes": `{"assignment":{"P":2,"BlockSize":16,` +
		`"Partners":[[1],[0]],"Blocks":[1,1],"TotalBlocks":0}}`,
	"partner past P": `{"assignment":{"P":2,"BlockSize":16,` +
		`"Partners":[[5],[0]],"Blocks":[1,1],"TotalBlocks":2}}`,
	"negative P": `{"assignment":{"P":-1,"BlockSize":16,"Partners":[],"Blocks":[],"TotalBlocks":0}}`,
}

// assignmentOf cuts the assignment object out of a plan body.
func assignmentOf(t testing.TB, planBody string) []byte {
	t.Helper()
	var w struct {
		Assignment json.RawMessage `json:"assignment"`
	}
	if err := json.Unmarshal([]byte(planBody), &w); err != nil {
		t.Fatal(err)
	}
	return w.Assignment
}

func TestDecodeArtifactRefusesHostileAssignments(t *testing.T) {
	for name, body := range hostilePlanBodies {
		for stage, data := range map[string][]byte{
			StagePlan:   []byte(body),
			StageAssign: assignmentOf(t, body),
		} {
			v, err := DecodeArtifact(stage, data)
			if !errors.Is(err, hfast.ErrInvalidAssignment) {
				t.Errorf("%s as a %s artifact: decoded to %v, %v; want ErrInvalidAssignment", name, stage, v, err)
			}
		}
	}
	// A valid assignment whose crossbar no machine could hold is Wire's to
	// refuse: an assign artifact (nothing is wired), not a plan.
	huge := `{"assignment":{"P":1,"BlockSize":1099511627776,"Partners":[[]],"Blocks":[1],"TotalBlocks":1}}`
	if _, err := DecodeArtifact(StageAssign, assignmentOf(t, huge)); err != nil {
		t.Errorf("assignment with a 2^40-port block: %v", err)
	}
	if v, err := DecodeArtifact(StagePlan, []byte(huge)); err == nil {
		t.Errorf("plan with a 2^40-port block decoded to %v", v)
	}
}

// recomputedSummary is what the four calls Plan.Summary replaced return.
func recomputedSummary(p *Plan) PlanSummary {
	return PlanSummary{
		Ports:       p.Assignment.Ports(),
		MaxRoute:    p.Assignment.MaxRoute(),
		SwitchPorts: p.Wiring.Switch.Ports(),
		LitPorts:    p.Wiring.Switch.LitPorts(),
	}
}

// TestGoldenPlanArtifacts pins the assign and plan wire forms to files an
// earlier commit wrote, so replicas before and after Plan.Summary exchange
// artifacts: the summary is derived on arrival and never encoded.
func TestGoldenPlanArtifacts(t *testing.T) {
	for stage, file := range map[string]string{StageAssign: "assign.golden.json", StagePlan: "plan.golden.json"} {
		golden, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecodeArtifact(stage, golden)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		again, err := EncodeArtifact(stage, v)
		if err != nil {
			t.Fatalf("%s: re-encoding: %v", file, err)
		}
		if !bytes.Equal(again, golden) {
			t.Errorf("%s: wire form drifted:\n got %s\nwant %s", file, again, golden)
		}
		if p, ok := v.(*Plan); ok {
			want := PlanSummary{
				Ports:       hfast.PortUsage{ActivePorts: 132, UsedActivePorts: 91, PassivePorts: 155},
				MaxRoute:    hfast.Route{SBHops: 5, Crossings: 6},
				SwitchPorts: 155,
				LitPorts:    114,
			}
			if p.Summary != want {
				t.Errorf("%s: summary %+v, want %+v", file, p.Summary, want)
			}
		}
	}
}

// TestPlanSummary: for every skeleton at P=64 the summary a plan is built
// with, and the one a peer's copy of it is decoded with, equal the four
// calls they replace — and the worst route equals the longest circuit path
// through the wiring itself.
func TestPlanSummary(t *testing.T) {
	pl := New(Options{})
	for _, app := range apps.Names() {
		plan, _, err := pl.Plan(context.Background(), Spec(ProfileSpec{App: app, Procs: 64, Steps: 1}), Steady(), 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		data, err := EncodeArtifact(StagePlan, plan)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		v, err := DecodeArtifact(StagePlan, data)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		var physical hfast.Route
		for i := 0; i < plan.Assignment.P; i++ {
			for j := 0; j < plan.Assignment.P; j++ {
				if r, _ := plan.Wiring.Route(i, j); r.SBHops > physical.SBHops {
					physical = r
				}
			}
		}
		want := recomputedSummary(plan)
		if want.MaxRoute != physical {
			t.Errorf("%s: MaxRoute() %+v, longest wired route %+v", app, want.MaxRoute, physical)
		}
		if plan.Summary != want {
			t.Errorf("%s: built summary %+v, want %+v", app, plan.Summary, want)
		}
		if got := v.(*Plan).Summary; got != want {
			t.Errorf("%s: decoded summary %+v, want %+v", app, got, want)
		}
	}
}

// FuzzDecodePlanArtifact throws arbitrary bytes at the two decoders that
// index into what they decode. Decoding must not panic, and whatever it
// accepts must survive encode → decode → encode byte for byte and, for a
// plan, carry the summary its own assignment and wiring give.
func FuzzDecodePlanArtifact(f *testing.F) {
	for _, file := range []string{"assign.golden.json", "plan.golden.json"} {
		golden, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	for _, body := range hostilePlanBodies {
		f.Add([]byte(body))
		f.Add([]byte(assignmentOf(f, body)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Blocks far larger than any degree are legal, and wiring them is
		// hundreds of megabytes an execution; hfast's own tests hold Wire
		// to its port limit.
		var peek struct {
			BlockSize  int
			Assignment struct{ BlockSize int }
		}
		if json.Unmarshal(data, &peek) == nil && max(peek.BlockSize, peek.Assignment.BlockSize) > 1<<12 {
			t.Skip("oversized block")
		}
		for _, stage := range []string{StageAssign, StagePlan} {
			v, err := DecodeArtifact(stage, data)
			if err != nil {
				continue
			}
			first, err := EncodeArtifact(stage, v)
			if err != nil {
				t.Fatalf("%s: accepted, then failed to encode: %v", stage, err)
			}
			back, err := DecodeArtifact(stage, first)
			if err != nil {
				t.Fatalf("%s: own encoding refused: %v\n%s", stage, err, first)
			}
			second, err := EncodeArtifact(stage, back)
			if err != nil || !bytes.Equal(first, second) {
				t.Fatalf("%s: round trip not byte-identical (%v):\n%s\n%s", stage, err, first, second)
			}
			for _, p := range []any{v, back} {
				if p, ok := p.(*Plan); ok && p.Summary != recomputedSummary(p) {
					t.Fatalf("plan summary %+v, its assignment and wiring give %+v", p.Summary, recomputedSummary(p))
				}
			}
		}
	})
}
