package meshtorus

import (
	"testing"
	"testing/quick"

	"github.com/hfast-sim/hfast/internal/topology"
)

// scrambledRing builds a ring over a permuted rank order so identity
// placement on a 1D mesh is badly dilated but a perfect placement exists.
func scrambledRing(n int) *topology.Graph {
	g := topology.MustGraph(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i*7 + 3) % n // 7 coprime with n=16 etc.
	}
	for i := 0; i < n; i++ {
		g.AddTraffic(perm[i], perm[(i+1)%n], 1, 1<<20, 1<<20)
	}
	return g
}

func TestPlacementCostIdentity(t *testing.T) {
	m, _ := New([]int{4, 4}, true)
	g := topology.MustGraph(16)
	g.AddTraffic(0, 1, 1, 1000, 1<<20) // adjacent on the mesh
	g.AddTraffic(0, 5, 1, 1000, 1<<20) // diagonal: distance 2
	cost, err := m.PlacementCost(g, IdentityPlacement(16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 1000*1+1000*2 {
		t.Errorf("identity cost %d, want 3000", cost)
	}
}

func TestPlacementValidation(t *testing.T) {
	m, _ := New([]int{4}, false)
	g := topology.MustGraph(4)
	if _, err := m.PlacementCost(g, Placement{0, 1, 2}, 0); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := m.PlacementCost(g, Placement{0, 0, 1, 2}, 0); err == nil {
		t.Error("non-permutation accepted")
	}
	big := topology.MustGraph(8)
	if _, err := m.PlacementCost(big, IdentityPlacement(8), 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestOptimizePlacementImprovesScrambledRing(t *testing.T) {
	const n = 16
	m, _ := New([]int{n}, true) // 1D ring mesh
	g := scrambledRing(n)
	pl, before, after, err := OptimizePlacement(g, m, 0, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.valid(n) {
		t.Fatal("optimizer broke the permutation")
	}
	if after >= before {
		t.Errorf("no improvement: before %d after %d", before, after)
	}
	// The scrambled ring has a perfect (dilation-1) placement; annealing
	// should get within 2x of it.
	perfect := int64(n) * (1 << 20)
	if after > 2*perfect {
		t.Errorf("after %d too far from perfect %d", after, perfect)
	}
	// The returned cost matches an independent evaluation.
	check, err := m.PlacementCost(g, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if check != after {
		t.Errorf("reported %d but placement costs %d", after, check)
	}
}

func TestOptimizePlacementDeterministic(t *testing.T) {
	m, _ := New([]int{4, 4}, true)
	g := scrambledRing(16)
	_, _, a1, err := OptimizePlacement(g, m, 0, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, _, a2, err := OptimizePlacement(g, m, 0, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("same seed diverged: %d vs %d", a1, a2)
	}
}

func TestOptimizePlacementNeverWorsensQuick(t *testing.T) {
	f := func(seed uint64) bool {
		m, _ := New([]int{4, 4}, true)
		g := scrambledRing(16)
		_, before, after, err := OptimizePlacement(g, m, 0, 2000, seed)
		return err == nil && after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEmbedScrambledRingPinned pins the identity embedding of the
// scrambled ring on a 4×4 mesh to the values the separate Embed walk
// produced before it became EmbedPlaced on the identity placement: 16
// edges, 54 hops over 21 distinct links, 1 MB each.
func TestEmbedScrambledRingPinned(t *testing.T) {
	m, _ := New([]int{4, 4}, false)
	got, err := Embed(scrambledRing(16), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Embedding{
		MaxDilation:   6,
		AvgDilation:   54.0 / 16,
		MaxCongestion: 4 << 20,
		AvgCongestion: float64(54<<20) / 21,
		Edges:         16,
	}
	if got != want {
		t.Errorf("identity embedding %+v, want %+v", got, want)
	}
}

func TestEmbedPlacedReflectsOptimization(t *testing.T) {
	const n = 16
	m, _ := New([]int{n}, true)
	g := scrambledRing(n)
	pl, _, _, err := OptimizePlacement(g, m, 0, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	identity, err := EmbedPlaced(g, m, IdentityPlacement(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := EmbedPlaced(g, m, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.AvgDilation >= identity.AvgDilation {
		t.Errorf("optimization did not reduce dilation: %.2f vs %.2f",
			optimized.AvgDilation, identity.AvgDilation)
	}
}

func TestMetropolisProbShape(t *testing.T) {
	if p := metropolisProb(0, 1); p != 1 {
		t.Errorf("prob(0) = %g, want 1", p)
	}
	if p := metropolisProb(100, 1); p != 0 {
		t.Errorf("prob(huge) = %g, want 0", p)
	}
	if metropolisProb(1, 1) <= metropolisProb(2, 1) {
		t.Error("prob not decreasing in delta")
	}
}
