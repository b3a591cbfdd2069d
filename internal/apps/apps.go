// Package apps implements communication skeletons of the six scientific
// applications the paper profiles (Table 2): Cactus, LBMHD, GTC, SuperLU,
// PMEMD, and PARATEC.
//
// Each skeleton reproduces the documented parallel decomposition and the
// message pattern it induces — call types, buffer sizes, partner sets, and
// their scaling with the process count — without performing the numerical
// work. This follows the paper's own observation (§3.2) that reduced
// communication quantities such as the topological degree of communication
// are "largely dictated by the problem solved and algorithmic methodology";
// running the skeleton under the IPM collector therefore yields the same
// class of profile the authors measured on Seaborg.
//
// Every skeleton wraps its startup traffic in an "init" region and each
// timestep in a "step<N>" region so analyses can reproduce the paper's
// exclusion of initialization (done there for SuperLU) and the future-work
// time-windowed TDC study.
package apps

import (
	"fmt"

	"github.com/hfast-sim/hfast/internal/mpi"
)

// Config carries the workload parameters of one skeleton run.
type Config struct {
	// Procs is the number of ranks; the skeleton must be run on a world of
	// exactly this size.
	Procs int
	// Steps is the number of steady-state timesteps.
	Steps int
	// Scale is the per-app problem-size knob (grid points per dimension,
	// panel width, ...); 0 selects the app default.
	Scale int
	// Seed perturbs the deterministic pseudo-random choices (particle
	// imbalance, matrix structure); runs with equal configs are identical.
	Seed int64
}

// withDefaults fills zero fields with sensible run defaults.
func (cfg Config) withDefaults(defaultScale int) Config {
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = defaultScale
	}
	return cfg
}

// Info describes one application skeleton, mirroring the paper's Table 2.
type Info struct {
	// Name is the registry key ("cactus", "lbmhd", ...).
	Name string
	// Discipline, Problem, and Structure reproduce the Table 2 columns.
	Discipline string
	Problem    string
	Structure  string
	// PaperLines is the code size the paper reports for the real
	// application.
	PaperLines int
	// Case is the paper's §2.5 hypothesis class the application belongs to
	// ("i" isotropic bounded, "ii" anisotropic bounded, "iii" low average /
	// high max, "iv" full bisection).
	Case string
	// DefaultScale is the Scale used when Config.Scale is zero.
	DefaultScale int
	// Run executes one rank of the skeleton.
	Run func(c *mpi.Comm, cfg Config)
}

// Registry lists the six skeletons in the paper's Table 2 order.
var Registry = []Info{
	{
		Name:         "cactus",
		Discipline:   "Astrophysics",
		Problem:      "Einstein's Theory of GR via Finite Differencing",
		Structure:    "Grid",
		PaperLines:   84000,
		Case:         "i",
		DefaultScale: 194,
		Run:          RunCactus,
	},
	{
		Name:         "lbmhd",
		Discipline:   "Plasma Physics",
		Problem:      "Magneto-Hydrodynamics via Lattice Boltzmann",
		Structure:    "Lattice/Grid",
		PaperLines:   1500,
		Case:         "ii",
		DefaultScale: 160,
		Run:          RunLBMHD,
	},
	{
		Name:         "gtc",
		Discipline:   "Magnetic Fusion",
		Problem:      "Vlasov-Poisson Equation via Particle in Cell",
		Structure:    "Particle/Grid",
		PaperLines:   5000,
		Case:         "iii",
		DefaultScale: 64,
		Run:          RunGTC,
	},
	{
		Name:         "superlu",
		Discipline:   "Linear Algebra",
		Problem:      "Sparse Solve via LU Decomposition",
		Structure:    "Sparse Matrix",
		PaperLines:   42000,
		Case:         "iii",
		DefaultScale: 96,
		Run:          RunSuperLU,
	},
	{
		Name:         "pmemd",
		Discipline:   "Life Sciences",
		Problem:      "Molecular Dynamics via Particle Mesh Ewald",
		Structure:    "Particle",
		PaperLines:   37000,
		Case:         "iii",
		DefaultScale: 24576,
		Run:          RunPMEMD,
	},
	{
		Name:         "paratec",
		Discipline:   "Material Science",
		Problem:      "Density Functional Theory via FFT",
		Structure:    "Fourier/Grid",
		PaperLines:   50000,
		Case:         "iv",
		DefaultScale: 32,
		Run:          RunPARATEC,
	},
}

// Extra lists skeletons beyond the paper's Table 2 — synthetic workloads
// for studies the six static apps cannot drive. They resolve through
// Lookup and are served by hfastd, but stay out of Registry so analyses
// pinned to the paper's six-app set are unaffected.
var Extra = []Info{
	{
		Name:         "amr",
		Discipline:   "Synthetic",
		Problem:      "Adaptive Mesh Refinement with migrating patches",
		Structure:    "Grid + adaptive",
		PaperLines:   0,
		Case:         "ii",
		DefaultScale: 96,
		Run:          RunAMR,
	},
}

// Lookup finds a skeleton by name in Registry or Extra.
func Lookup(name string) (Info, error) {
	for _, in := range Registry {
		if in.Name == name {
			return in, nil
		}
	}
	for _, in := range Extra {
		if in.Name == name {
			return in, nil
		}
	}
	return Info{}, fmt.Errorf("apps: unknown application %q", name)
}

// Names returns the paper-registry names in order (Extra excluded).
func Names() []string {
	out := make([]string, len(Registry))
	for i, in := range Registry {
		out[i] = in.Name
	}
	return out
}

// All returns every skeleton: the paper's six, then the extras.
func All() []Info {
	out := make([]Info, 0, len(Registry)+len(Extra))
	out = append(out, Registry...)
	return append(out, Extra...)
}

// stepRegion is the region name of steady-state step s. Analyses match
// the "step" prefix (trace windows), and ipm.CompareRegions orders the
// names as the steps ran.
func stepRegion(s int) string { return fmt.Sprintf("step%03d", s) }

// splitMix64 is a tiny deterministic hash used for reproducible
// pseudo-random workload structure (particle imbalance, matrix fill).
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFloat maps a key deterministically to [0,1).
func hashFloat(keys ...uint64) float64 {
	h := uint64(0x123456789abcdef)
	for _, k := range keys {
		h = splitMix64(h ^ k)
	}
	return float64(h>>11) / float64(1<<53)
}

// hashRange maps a key deterministically to [lo,hi).
func hashRange(lo, hi int, keys ...uint64) int {
	if hi <= lo {
		return lo
	}
	return lo + int(hashFloat(keys...)*float64(hi-lo))
}
