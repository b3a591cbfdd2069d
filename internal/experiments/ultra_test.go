package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// ultraTestApps keeps the default test run fast: the near-neighbor
// skeletons finish P=1024 in well under a second each, while the
// all-to-all codes (pmemd, paratec) take tens of seconds and only run
// when HFAST_TEST_ULTRA=1 asks for the full six-skeleton grid.
func ultraTestApps() []string {
	if os.Getenv("HFAST_TEST_ULTRA") != "" {
		return PaperApps
	}
	return []string{"cactus", "lbmhd", "gtc"}
}

func TestUltraRowsAtP1024(t *testing.T) {
	if os.Getenv("HFAST_TEST_QUICK") != "" {
		t.Skip("HFAST_TEST_QUICK set")
	}
	r := testRunner()
	appNames := ultraTestApps()
	rows, err := UltraRows(r, appNames, []int{1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(appNames) {
		t.Fatalf("got %d rows, want %d", len(rows), len(appNames))
	}
	for _, row := range rows {
		if row.Procs != 1024 {
			t.Errorf("%s: procs %d", row.App, row.Procs)
		}
		if row.Edges <= 0 || int64(2*row.Edges) >= row.DenseCells {
			t.Errorf("%s: %d edges vs %d dense cells — graph not sparse", row.App, row.Edges, row.DenseCells)
		}
		if row.Stats.Max <= 0 || row.Cmp.Blocks < 1024 {
			t.Errorf("%s: bad row %+v", row.App, row)
		}
		if row.Cmp.HFAST.Total() <= 0 || row.Cmp.FatTree.Total() <= 0 {
			t.Errorf("%s: non-positive costs", row.App)
		}
	}
}

// TestUltraCaps pins which skeletons the ultra grid profiles at each
// size, in the analysis rows and in the fabric study, and that the tables
// name every code they leave out.
func TestUltraCaps(t *testing.T) {
	for _, tc := range []struct {
		procs            int
		analysis, fabric []string
	}{
		{1024, PaperApps, []string{"cactus", "lbmhd", "gtc"}},
		{4096, []string{"cactus", "lbmhd", "gtc"}, []string{"cactus", "lbmhd", "gtc"}},
		{16384, []string{"cactus", "lbmhd"}, []string{"cactus", "lbmhd"}},
		{65536, []string{"cactus"}, []string{"cactus"}},
	} {
		var analysis []string
		for _, app := range PaperApps {
			if !ultraCapped(app, tc.procs) {
				analysis = append(analysis, app)
			}
		}
		if !slices.Equal(analysis, tc.analysis) {
			t.Errorf("P=%d: the analysis grid profiles %v, want %v", tc.procs, analysis, tc.analysis)
		}
		if got := UltraFabricAppsAt(tc.procs); !slices.Equal(got, tc.fabric) {
			t.Errorf("P=%d: the fabric study replays %v, want %v", tc.procs, got, tc.fabric)
		}
		var b strings.Builder
		writeUltraOmitted(&b, PaperApps, tc.procs)
		if got, want := strings.Count(b.String(), "\n"), len(PaperApps)-len(tc.analysis); got != want {
			t.Errorf("P=%d: %d omission notes, want %d:\n%s", tc.procs, got, want, b.String())
		}
		for _, app := range PaperApps {
			if noted := strings.Contains(b.String(), " omits "+app+","); noted == slices.Contains(tc.analysis, app) {
				t.Errorf("P=%d: omission of %s noted %v:\n%s", tc.procs, app, noted, b.String())
			}
		}
	}
}

func TestUltraFabricRowsAtP1024(t *testing.T) {
	if os.Getenv("HFAST_TEST_QUICK") != "" {
		t.Skip("HFAST_TEST_QUICK set")
	}
	r := testRunner()
	appNames := UltraFabricApps()
	rows, err := NetsimRowsFor(r, appNames, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(appNames) {
		t.Fatalf("got %d rows, want %d", len(rows), len(appNames))
	}
	for _, row := range rows {
		if row.Procs != 1024 || row.Flows <= 0 {
			t.Errorf("%s: bad row shape %+v", row.App, row)
		}
		if row.HFAST <= 0 || row.FCN <= 0 || row.Mesh <= 0 {
			t.Errorf("%s: non-positive makespan %+v", row.App, row)
		}
	}
}

// TestUltraFabricRowsAtP16384 drives the region-sharded netsim at the
// scale the PR titles: the halo skeleton's steady traffic at P=16384 on
// all three contended fabric models. Long (tens of seconds), so it only
// runs when HFAST_TEST_ULTRA=1 opts in.
func TestUltraFabricRowsAtP16384(t *testing.T) {
	if os.Getenv("HFAST_TEST_ULTRA") == "" {
		t.Skip("set HFAST_TEST_ULTRA=1 for the P=16384 fabric study")
	}
	r := testRunner()
	for _, procs := range []int{4096, 16384} {
		rows, err := NetsimRowsFor(r, []string{"cactus"}, procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if row.Procs != procs || row.Flows < procs {
				t.Errorf("P=%d: bad row shape %+v", procs, row)
			}
			if row.HFAST <= 0 || row.FCN <= 0 || row.Mesh <= 0 {
				t.Errorf("P=%d: non-positive makespan %+v", procs, row)
			}
		}
	}
}

// TestUltraFabricRowsAtP65536 drives the component-parallel scheduler at
// the scale this PR titles: the halo skeleton's steady traffic at
// P=65536 replayed to completion on all three contended fabric models.
// Long (minutes on one core), so it only runs when HFAST_TEST_ULTRA=1
// opts in.
func TestUltraFabricRowsAtP65536(t *testing.T) {
	if os.Getenv("HFAST_TEST_ULTRA") == "" {
		t.Skip("set HFAST_TEST_ULTRA=1 for the P=65536 fabric study")
	}
	r := testRunner()
	const procs = 65536
	rows, err := NetsimRowsFor(r, UltraFabricAppsAt(procs), procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (cactus only past P=16384)", len(rows))
	}
	for _, row := range rows {
		if row.Procs != procs || row.Flows < procs {
			t.Errorf("P=%d: bad row shape %+v", procs, row)
		}
		if row.HFAST <= 0 || row.FCN <= 0 || row.Mesh <= 0 {
			t.Errorf("P=%d: non-positive makespan %+v", procs, row)
		}
	}
}

func TestUltraRenders(t *testing.T) {
	if os.Getenv("HFAST_TEST_QUICK") != "" {
		t.Skip("HFAST_TEST_QUICK set")
	}
	old := UltraProcs
	UltraProcs = []int{64}
	defer func() { UltraProcs = old }()
	var b strings.Builder
	if err := Ultra(&b, testRunner()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Ultra-scale grid", "cactus", "paratec", "Cost ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("ultra output missing %q", want)
		}
	}
}
