// Streaming window folding and online phase detection: the live
// counterpart of Windows/AnalyzeWindows. A StreamState folds profile
// deltas (ipm.Delta) into the same window stream the batch path
// extracts, while a hysteresis-thresholded detector watches the
// partner-set distance between each new window and the running phase
// aggregate — the signal an HFAST controller needs to re-provision
// circuits mid-run.

package trace

import (
	"fmt"
	"strings"
	"sync"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// DetectorConfig tunes the online phase-change detector. The distance
// between a new window and the current phase aggregate is the Jaccard
// distance of their thresholded edge sets (0 = identical partner sets,
// 1 = disjoint). Hysteresis keeps one noisy window from oscillating the
// fabric: a boundary fires when the distance exceeds Enter while the
// detector is armed, which disarms it; it re-arms only once the distance
// falls below Exit.
type DetectorConfig struct {
	// Enter is the boundary-firing threshold (default 0.5).
	Enter float64 `json:"enter"`
	// Exit is the re-arming threshold (default 0.25); Exit <= Enter.
	Exit float64 `json:"exit"`
	// MinWindows is the minimum windows a phase must span before a
	// boundary may fire (default 1).
	MinWindows int `json:"min_windows"`
}

// Normalize fills defaults and validates the thresholds.
func (c DetectorConfig) Normalize() (DetectorConfig, error) {
	if c.Enter == 0 {
		c.Enter = 0.5
	}
	if c.Exit == 0 {
		c.Exit = 0.25
	}
	if c.MinWindows == 0 {
		c.MinWindows = 1
	}
	if c.Enter < 0 || c.Enter > 1 || c.Exit < 0 || c.Exit > 1 || c.Exit > c.Enter || c.MinWindows < 1 {
		return c, fmt.Errorf("trace: bad detector config enter=%g exit=%g min_windows=%d", c.Enter, c.Exit, c.MinWindows)
	}
	return c, nil
}

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
	Det    DetectorConfig

	// Deltas is the number of deltas folded; the next delta must carry
	// Seq == Deltas.
	Deltas int
	// Windows is the folded step-window stream, element-for-element what
	// batch Windows() extracts from the merged profile.
	Windows []Window
	// Steady is the union of all non-"init" traffic folded so far — the
	// graph the batch pipeline's steady-state stage builds.
	Steady *topology.Graph

	// Last describes the most recent fold.
	Last FoldEvent

	// detector state (all copied on fold; graphs cloned on write).
	closed   []Phase
	curStart int
	curGraph *topology.Graph
	armed    bool
	lastStep string

	// opp holds this snapshot's Opportunity once somebody has asked for
	// it. It sits behind a pointer because Fold copies the struct; every
	// snapshot gets its own.
	opp *opportunityMemo
}

type opportunityMemo struct {
	once sync.Once
	op   Opportunity
	err  error
}

// NewStreamState opens a stream for a run over procs ranks. Step windows
// are regions with the given prefix ("step" when empty); cutoff 0 means
// topology.DefaultCutoff.
func NewStreamState(procs, cutoff int, prefix string, det DetectorConfig) (*StreamState, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("trace: stream needs positive proc count, got %d", procs)
	}
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	if prefix == "" {
		prefix = "step"
	}
	det, err := det.Normalize()
	if err != nil {
		return nil, err
	}
	steady, err := topology.NewGraph(procs)
	if err != nil {
		return nil, err
	}
	return &StreamState{
		Procs:  procs,
		Cutoff: cutoff,
		Prefix: prefix,
		Det:    det,
		Steady: steady,
		Last:   FoldEvent{Phase: -1},
		opp:    new(opportunityMemo),
	}, nil
}

// Fold folds one delta into the stream, returning the successor state.
// The delta's Procs is checked against the stream's — the stream is the
// single source of truth for the rank count, so a mismatched delta is an
// error, not a silently truncated graph. Deltas must arrive in Seq order
// and step windows in region order (program order).
func (s *StreamState) Fold(d *ipm.Delta) (*StreamState, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Procs != s.Procs {
		return nil, fmt.Errorf("trace: delta %q window %q spans %d ranks but stream folds %d procs",
			d.App, d.Window, d.Procs, s.Procs)
	}
	if s.App != "" && d.App != s.App {
		return nil, fmt.Errorf("trace: delta for app %q folded into stream of %q", d.App, s.App)
	}
	if d.Seq != s.Deltas {
		return nil, fmt.Errorf("trace: delta seq %d out of order, stream expects %d", d.Seq, s.Deltas)
	}
	isStep := strings.HasPrefix(d.Window, s.Prefix)
	if isStep && d.Window <= s.lastStep {
		return nil, fmt.Errorf("trace: step window %q arrived after %q; windows must fold in program order",
			d.Window, s.lastStep)
	}

	ns := *s // shallow copy; every mutated field below is re-derived
	ns.App = d.App
	ns.Deltas = s.Deltas + 1
	ns.Last = FoldEvent{Phase: s.Last.Phase}
	ns.opp = new(opportunityMemo)

	g, err := topology.FromProfile(d.AsProfile(), ipm.Region(d.Window))
	if err != nil {
		return nil, err
	}
	if d.Window != "init" {
		ns.Steady = addGraph(cloneGraph(s.Steady), g)
	}
	if !isStep {
		return &ns, nil
	}

	w := Window{Region: d.Window, Graph: g, Stats: g.Stats(s.Cutoff)}
	ns.lastStep = d.Window
	k := len(s.Windows)
	ns.Windows = append(s.Windows[:k:k], w)
	ns.Last.Window = &ns.Windows[k]

	if s.curGraph == nil {
		// First step window opens phase 0.
		ns.curStart, ns.curGraph, ns.armed = k, cloneGraph(g), true
		ns.Last.Boundary, ns.Last.Phase = true, 0
		return &ns, nil
	}
	dist := phaseDistance(s.curGraph, g, s.Cutoff)
	ns.Last.Distance = dist
	if s.armed && dist > s.Det.Enter && k-s.curStart >= s.Det.MinWindows {
		nc := len(s.closed)
		ns.closed = append(s.closed[:nc:nc], Phase{Start: s.curStart, End: k, Graph: s.curGraph})
		ns.curStart, ns.curGraph, ns.armed = k, cloneGraph(g), false
		ns.Last.Boundary, ns.Last.Phase = true, nc+1
		return &ns, nil
	}
	if !s.armed && dist < s.Det.Exit {
		ns.armed = true
	}
	ns.curGraph = addGraph(cloneGraph(s.curGraph), g)
	return &ns, nil
}

// Phases returns the detected phases, the open one last (its End is the
// current window count). Empty before the first step window.
func (s *StreamState) Phases() []Phase {
	if s.curGraph == nil {
		return nil
	}
	out := make([]Phase, 0, len(s.closed)+1)
	out = append(out, s.closed...)
	return append(out, Phase{Start: s.curStart, End: len(s.Windows), Graph: s.curGraph})
}

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
	if s.opp == nil { // a literal, not NewStreamState's: nothing to share
		return AnalyzeWindows(s.Procs, s.Windows, s.Cutoff)
	}
	s.opp.once.Do(func() {
		s.opp.op, s.opp.err = AnalyzeWindows(s.Procs, s.Windows, s.Cutoff)
	})
	return s.opp.op, s.opp.err
}

// DetectPhases runs the online detector over an already-extracted window
// slice — the batch entry point the experiments use, guaranteed to match
// what a streamed fold of the same windows produces.
func DetectPhases(procs int, ws []Window, cutoff int, det DetectorConfig) ([]Phase, error) {
	if cutoff == 0 {
		cutoff = topology.DefaultCutoff
	}
	det, err := det.Normalize()
	if err != nil {
		return nil, err
	}
	var (
		closed   []Phase
		curStart int
		curGraph *topology.Graph
		armed    bool
	)
	for k := range ws {
		w := &ws[k]
		if w.Graph == nil || w.Graph.P != procs {
			return nil, fmt.Errorf("trace: window %q does not span %d procs", w.Region, procs)
		}
		if curGraph == nil {
			curStart, curGraph, armed = k, cloneGraph(w.Graph), true
			continue
		}
		dist := phaseDistance(curGraph, w.Graph, cutoff)
		if armed && dist > det.Enter && k-curStart >= det.MinWindows {
			closed = append(closed, Phase{Start: curStart, End: k, Graph: curGraph})
			curStart, curGraph, armed = k, cloneGraph(w.Graph), false
			continue
		}
		if !armed && dist < det.Exit {
			armed = true
		}
		curGraph = addGraph(curGraph, w.Graph)
	}
	if curGraph == nil {
		return nil, nil
	}
	return append(closed, Phase{Start: curStart, End: len(ws), Graph: curGraph}), nil
}

// phaseDistance is the Jaccard distance between two graphs' thresholded
// edge sets: |AΔB| / |A∪B|, 0 when both are empty.
func phaseDistance(a, b *topology.Graph, cutoff int) float64 {
	ea, eb := edgeSet(a, cutoff), edgeSet(b, cutoff)
	inter := 0
	for e := range ea {
		if eb[e] {
			inter++
		}
	}
	union := len(ea) + len(eb) - inter
	if union == 0 {
		return 0
	}
	return float64(len(ea)+len(eb)-2*inter) / float64(union)
}

// cloneGraph deep-copies a traffic graph.
func cloneGraph(g *topology.Graph) *topology.Graph {
	out := topology.MustGraph(g.P)
	return addGraph(out, g)
}

// addGraph folds src's traffic into dst and returns dst.
func addGraph(dst, src *topology.Graph) *topology.Graph {
	src.ForEachEdge(func(i, j int, e topology.Edge) {
		if e.Msgs > 0 {
			dst.AddTraffic(i, j, e.Msgs, e.Vol, e.MaxMsg)
		}
	})
	return dst
}
