package topology

import (
	"encoding/json"
	"fmt"

	"github.com/hfast-sim/hfast/internal/ipm"
)

// The JSON wire format of Graph, used by the clustered artifact tier to
// ship graph artifacts between hfastd replicas. The format is canonical:
// edges are emitted in increasing (i, j) order, and a decode accepts them
// in no other, so encode → decode → re-encode is byte-identical.

// graphWire is the serialized form: the rank count plus the undirected
// edge list.
type graphWire struct {
	P     int        `json:"p"`
	Edges []edgeWire `json:"edges"`
}

type edgeWire struct {
	I      int   `json:"i"`
	J      int   `json:"j"`
	Vol    int64 `json:"vol"`
	Msgs   int64 `json:"msgs"`
	MaxMsg int   `json:"max_msg"`
}

// MarshalJSON encodes the graph as {p, edges} with edges in increasing
// (i, j) order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := graphWire{P: g.P, Edges: make([]edgeWire, 0, g.EdgeCount())}
	g.ForEachEdge(func(i, j int, e Edge) {
		w.Edges = append(w.Edges, edgeWire{I: i, J: j, Vol: e.Vol, Msgs: e.Msgs, MaxMsg: e.MaxMsg})
	})
	return json.Marshal(w)
}

// UnmarshalJSON rebuilds the graph from its wire form; see DecodeGraph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	ng, err := DecodeGraph(data, 0)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// DecodeGraph decodes a graph's wire form, refusing what MarshalJSON
// cannot have written: a size NewGraph refuses, an endpoint out of range,
// an edge out of the strictly increasing (i, j), i < j order. The edges
// are built by FromPairs, so a decode is linear in the body. When procs
// is positive, a graph over any other number of ranks is refused before
// anything is sized by its rank count: a peer's body cannot make a
// replica allocate for more ranks than the recipe it was asked for.
func DecodeGraph(data []byte, procs int) (*Graph, error) {
	var w graphWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("topology: decoding graph: %w", err)
	}
	if procs > 0 && w.P != procs {
		return nil, fmt.Errorf("topology: graph wire form spans %d ranks, want %d", w.P, procs)
	}
	pairs := make([]ipm.PairTraffic, len(w.Edges))
	for k, e := range w.Edges {
		if e.I >= e.J {
			return nil, fmt.Errorf("topology: edge (%d,%d) in graph wire form is not i < j", e.I, e.J)
		}
		if k > 0 {
			if prev := w.Edges[k-1]; e.I < prev.I || (e.I == prev.I && e.J <= prev.J) {
				return nil, fmt.Errorf("topology: edge (%d,%d) follows (%d,%d) in graph wire form", e.I, e.J, prev.I, prev.J)
			}
		}
		pairs[k] = ipm.PairTraffic{Src: e.I, Dst: e.J, Msgs: e.Msgs, Bytes: e.Vol, MaxMsg: e.MaxMsg}
	}
	return FromPairs(w.P, pairs)
}
