// Package hfast is the public API of the HFAST reproduction: profile a
// scientific-application communication skeleton under an IPM-style
// collector, analyze its topology, provision a Hybrid Flexibly Assignable
// Switch Topology for it, and compare the result against fat-tree, mesh,
// and ICN baselines.
//
// The typical flow mirrors the paper:
//
//	prof, err := hfast.RunApp("gtc", hfast.Config{Procs: 256})
//	g, err := hfast.BuildGraph(prof)             // communication topology
//	sum, err := hfast.Summarize(prof)            // Table 3 row
//	a, err := hfast.Provision(g, 0, hfast.DefaultParams()) // HFAST fabric
//	cmp, err := hfast.CompareCosts(a, hfast.DefaultParams())
//
// Subsystems live in internal/ packages; this package re-exports the
// stable surface a downstream user needs.
package hfast

import (
	"github.com/hfast-sim/hfast/internal/analysis"
	"github.com/hfast-sim/hfast/internal/apps"
	core "github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Config selects the workload of an application skeleton run.
type Config = apps.Config

// Profile is an assembled IPM communication profile.
type Profile = ipm.Profile

// Graph is a symmetrized communication-topology graph.
type Graph = topology.Graph

// Summary is one Table 3 row of reduced communication metrics.
type Summary = analysis.Summary

// Assignment is a provisioned HFAST fabric.
type Assignment = core.Assignment

// Params sets HFAST component prices and block geometry.
type Params = core.Params

// Comparison contrasts an HFAST fabric against the fat-tree baseline.
type Comparison = core.Comparison

// DefaultCutoff is the paper's 2 KB bandwidth-delay-product threshold.
const DefaultCutoff = topology.DefaultCutoff

// RunApp executes the named skeleton ("cactus", "lbmhd", "gtc",
// "superlu", "pmemd", "paratec") under the IPM collector and returns its
// communication profile.
func RunApp(name string, cfg Config) (*Profile, error) { return apps.ProfileRun(name, cfg) }

// BuildGraph extracts the steady-state communication topology of a
// profile (initialization regions excluded, as in the paper). A malformed
// profile yields an error instead of a panic.
func BuildGraph(p *Profile) (*Graph, error) { return topology.FromProfile(p, ipm.SteadyState) }

// Summarize computes the Table 3 metrics of a profile at the paper's 2 KB
// threshold, excluding initialization.
func Summarize(p *Profile) (Summary, error) {
	return analysis.Summarize(p, ipm.SteadyState, topology.DefaultCutoff)
}

// DefaultParams returns the repository's standard HFAST pricing: 16-port
// blocks with a 10:1 active:passive port cost ratio.
func DefaultParams() Params { return core.DefaultParams() }

// Provision runs the paper's linear-time switch-block assignment on a
// communication graph at the given cutoff (DefaultCutoff when 0).
func Provision(g *Graph, cutoff int, p Params) (*Assignment, error) {
	return core.Assign(g, cutoff, p.BlockSize)
}

// CompareCosts prices an HFAST fabric against the equivalent fat-tree.
func CompareCosts(a *Assignment, p Params) (Comparison, error) { return core.Compare(a, p) }
