// Streaming window folding and online phase detection: the one path to
// a run's windows and phases, live (a delta at a time) or after the fact
// (Replay). A StreamState folds profile deltas (ipm.Delta) into the
// run's step-window stream, while a hysteresis-thresholded detector
// watches the partner-set distance between each new window and the
// running phase aggregate — the signal an HFAST controller needs to
// re-provision circuits mid-run.

package trace

import (
	"fmt"
	"strings"
	"sync"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// The online phase-change detector compares each new window with the
// current phase aggregate by the Jaccard distance of their thresholded
// edge sets (0 = identical partner sets, 1 = disjoint). Hysteresis keeps
// one noisy window from oscillating the fabric: a boundary fires when
// the distance exceeds phaseEnter while the detector is armed, which
// disarms it; it re-arms only once the distance falls below phaseExit.
// A phase spans at least one window with no check: a boundary at window
// k closes a phase opened at an earlier one.
const (
	phaseEnter = 0.5
	phaseExit  = 0.25
)

// Phase is a maximal run of consecutive windows the detector considers
// one communication epoch.
type Phase struct {
	// Start and End delimit the member windows as [Start, End) indices
	// into the folded window stream.
	Start, End int
	// Graph is the union traffic of the member windows — what a per-phase
	// provisioning must support.
	Graph *topology.Graph
}

// FoldEvent reports what one delta did to the stream.
type FoldEvent struct {
	// Window is the step window the delta appended, nil for non-step
	// deltas ("init", traffic outside regions).
	Window *Window
	// Boundary is true when the window opened a new phase (including the
	// very first step window, which opens phase 0).
	Boundary bool
	// Phase is the index of the current (open) phase after the fold, -1
	// before any step window arrived.
	Phase int
	// Distance is the detector's partner-set distance for this window
	// (0 for the window that opens phase 0 and for non-step deltas).
	Distance float64
}

// StreamState is an immutable snapshot of a folding delta stream: Fold
// returns a new state and never mutates the receiver, so a
// content-addressed pipeline can cache every prefix of a stream and
// share snapshots across readers.
type StreamState struct {
	App    string
	Procs  int
	Cutoff int
	Prefix string

	// Deltas is the number of deltas folded; the next delta must carry
	// Seq == Deltas.
	Deltas int
	// Windows is the folded step-window stream: one window per step
	// region, in program order (ipm.CompareRegions).
	Windows []Window

	// Last describes the most recent fold.
	Last FoldEvent

	detector
	lastStep string
	// steady lists the graphs of the non-"init" deltas folded so far (a
	// step delta's is the graph its Window holds); Steady() unions them.
	steady []*topology.Graph

	// memo holds this snapshot's Opportunity and Steady once somebody has
	// asked for them. It sits behind a pointer because Fold copies the
	// struct; every snapshot gets its own.
	memo *snapshotMemo
}

// detector is the phase automaton between two windows. step returns the
// successor and leaves the receiver as it was — closed is appended to
// with its capacity clipped and curGraph is cloned before it is added
// to — so the snapshots of a fold chain share nothing either one writes.
type detector struct {
	closed   []Phase
	curStart int
	curGraph *topology.Graph // union of the open phase's windows, nil before the first
	armed    bool
}

// step feeds window k's graph to the automaton: the successor state, the
// partner-set distance it measured against the open phase (0 for the
// window that opens phase 0) and whether the window opened a phase.
func (d detector) step(k int, g *topology.Graph, cutoff int) (detector, float64, bool) {
	if d.curGraph == nil {
		return detector{curStart: k, curGraph: g.Clone(), armed: true}, 0, true
	}
	dist := phaseDistance(d.curGraph, g, cutoff)
	if d.armed && dist > phaseEnter {
		n := len(d.closed)
		d.closed = append(d.closed[:n:n], Phase{Start: d.curStart, End: k, Graph: d.curGraph})
		d.curStart, d.curGraph, d.armed = k, g.Clone(), false
		return d, dist, true
	}
	if !d.armed && dist < phaseExit {
		d.armed = true
	}
	d.curGraph = d.curGraph.Clone().Add(g)
	return d, dist, false
}

// phases lists the closed phases and then the open one, which ends at
// window end; nil before the first window.
func (d detector) phases(end int) []Phase {
	if d.curGraph == nil {
		return nil
	}
	out := make([]Phase, 0, len(d.closed)+1)
	out = append(out, d.closed...)
	return append(out, Phase{Start: d.curStart, End: end, Graph: d.curGraph})
}

type snapshotMemo struct {
	oppOnce sync.Once
	op      Opportunity
	err     error

	steadyOnce sync.Once
	steady     *topology.Graph
}

// NewStreamState opens a stream for a run over procs ranks. Step windows
// are regions with the given prefix ("step" when empty); cutoff 0 means
// topology.DefaultCutoff.
func NewStreamState(procs, cutoff int, prefix string) (*StreamState, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("trace: stream needs positive proc count, got %d", procs)
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	if prefix == "" {
		prefix = "step"
	}
	return &StreamState{
		Procs:  procs,
		Cutoff: cutoff,
		Prefix: prefix,
		Last:   FoldEvent{Phase: -1},
		memo:   new(snapshotMemo),
	}, nil
}

// Fold folds one delta into the stream, returning the successor state.
// The delta's Procs is checked against the stream's — the stream is the
// single source of truth for the rank count, so a mismatched delta is an
// error, not a silently truncated graph. Deltas must arrive in Seq order
// and step windows in program order (ipm.CompareRegions).
func (s *StreamState) Fold(d *ipm.Delta) (*StreamState, error) {
	if err := s.admit(d); err != nil {
		return nil, err
	}
	return s.fold(d, d.AsProfile().Pairs(ipm.Region(d.Window)))
}

// FoldPairs is Fold for a delta whose window traffic has already been
// extracted: pairs is d.AsProfile().Pairs(ipm.Region(d.Window)), which
// ipm.DecodeDeltaPairs reads off the wire with no Ranks built. The
// checks and the fold are Fold's.
func (s *StreamState) FoldPairs(d *ipm.Delta, pairs []ipm.PairTraffic) (*StreamState, error) {
	if err := s.admit(d); err != nil {
		return nil, err
	}
	return s.fold(d, pairs)
}

// Replay folds a finished run: it splits the profile into its delta
// stream (ipm.SplitDeltas) and folds every delta into a fresh stream over
// p.Procs ranks, so a whole run's windows and phases come from the same
// fold a live stream runs. Prefix and cutoff are NewStreamState's.
func Replay(p *ipm.Profile, prefix string, cutoff int) (*StreamState, error) {
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamState(p.Procs, cutoff, prefix)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if s, err = s.Fold(d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// admit runs Validate and the procs check, before anything is sized by
// the delta's Procs.
func (s *StreamState) admit(d *ipm.Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Procs != s.Procs {
		return fmt.Errorf("trace: delta %q window %q spans %d ranks but stream folds %d procs",
			d.App, d.Window, d.Procs, s.Procs)
	}
	return nil
}

// fold is the body Fold and FoldPairs share, from the stream-order checks on.
func (s *StreamState) fold(d *ipm.Delta, pairs []ipm.PairTraffic) (*StreamState, error) {
	if s.App != "" && d.App != s.App {
		return nil, fmt.Errorf("trace: delta for app %q folded into stream of %q", d.App, s.App)
	}
	if d.Seq != s.Deltas {
		return nil, fmt.Errorf("trace: delta seq %d out of order, stream expects %d", d.Seq, s.Deltas)
	}
	isStep := strings.HasPrefix(d.Window, s.Prefix)
	if isStep && ipm.CompareRegions(d.Window, s.lastStep) <= 0 {
		return nil, fmt.Errorf("trace: step window %q arrived after %q; windows must fold in program order",
			d.Window, s.lastStep)
	}

	ns := *s // shallow copy; every mutated field below is re-derived
	ns.App = d.App
	ns.Deltas = s.Deltas + 1
	ns.Last = FoldEvent{Phase: s.Last.Phase}
	ns.memo = new(snapshotMemo)

	g, err := topology.FromPairs(s.Procs, pairs)
	if err != nil { // worded as topology.FromProfile words it
		return nil, fmt.Errorf("topology: profile %q: %w", d.App, err)
	}
	if d.Window != "init" {
		n := len(s.steady)
		ns.steady = append(s.steady[:n:n], g)
	}
	if !isStep {
		return &ns, nil
	}

	w := Window{Region: d.Window, Graph: g, Stats: g.Stats(s.Cutoff)}
	ns.lastStep = d.Window
	k := len(s.Windows)
	ns.Windows = append(s.Windows[:k:k], w)
	ns.Last.Window = &ns.Windows[k]
	ns.detector, ns.Last.Distance, ns.Last.Boundary = s.detector.step(k, g, s.Cutoff)
	if ns.Last.Boundary {
		ns.Last.Phase = len(ns.closed)
	}
	return &ns, nil
}

// Phases returns the detected phases, the open one last (its End is the
// current window count). Empty before the first step window.
func (s *StreamState) Phases() []Phase { return s.phases(len(s.Windows)) }

// NumPhases is len(Phases()) without building the slice.
func (s *StreamState) NumPhases() int {
	if s.curGraph == nil {
		return 0
	}
	return len(s.closed) + 1
}

// CurrentPhaseGraph returns the open phase's union traffic (nil before
// the first step window). The graph is shared: callers must not mutate.
func (s *StreamState) CurrentPhaseGraph() *topology.Graph { return s.curGraph }

// Opportunity runs the batch reconfiguration analysis over the folded
// windows, once per snapshot: the state is immutable and shared, so every
// session that reaches it reads the same answer.
func (s *StreamState) Opportunity() (Opportunity, error) {
	if s.memo == nil { // a literal, not NewStreamState's: nothing to share
		return AnalyzeWindows(s.Procs, s.Windows, s.Cutoff)
	}
	s.memo.oppOnce.Do(func() {
		s.memo.op, s.memo.err = AnalyzeWindows(s.Procs, s.Windows, s.Cutoff)
	})
	return s.memo.op, s.memo.err
}

// Steady returns the union of all non-"init" traffic folded so far — the
// graph the batch pipeline's steady-state stage builds — over Procs
// ranks, built on the first call per snapshot. The graph is shared:
// callers must not mutate it.
func (s *StreamState) Steady() *topology.Graph {
	union := func() *topology.Graph {
		g, err := topology.NewGraph(s.Procs)
		if err != nil { // a literal with no ranks
			return nil
		}
		for _, w := range s.steady {
			g.Add(w)
		}
		return g
	}
	if s.memo == nil {
		return union()
	}
	s.memo.steadyOnce.Do(func() { s.memo.steady = union() })
	return s.memo.steady
}

// phaseDistance is the Jaccard distance between two graphs' thresholded
// edge sets: |AΔB| / |A∪B|, 0 when both are empty.
func phaseDistance(a, b *topology.Graph, cutoff int) float64 {
	both, one := edgeDiff(a, b, cutoff)
	if both+one == 0 {
		return 0
	}
	return float64(one) / float64(both+one)
}
