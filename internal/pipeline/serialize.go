package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/topology"
)

// Artifact (de)serialization for every stage type — the wire half of the
// clustered tier. Each stage's encoding is canonical (stable field order,
// sorted slices), so encode → decode → re-encode is byte-identical and a
// peer-transferred artifact is provably equivalent to a locally built
// one; internal/pipeline's round-trip property tests pin this per stage.

// planWire is Plan's wire form. The wiring and the summary are omitted and
// re-derived on decode (newPlan): hfast.Wire is deterministic in its
// assignment, so the rebuilt plan is identical to the owner's, at a
// fraction of the transfer size.
type planWire struct {
	App        string            `json:"app"`
	Procs      int               `json:"procs"`
	Assignment *hfast.Assignment `json:"assignment"`
}

func encodeAs[T any](stage string, v any) ([]byte, error) {
	t, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("pipeline: %s artifact has unexpected type %T", stage, v)
	}
	return json.Marshal(t)
}

// EncodeArtifact serializes a stage artifact for the peer-fill wire.
func EncodeArtifact(stage string, v any) ([]byte, error) {
	switch stage {
	case StageProfile:
		p, ok := v.(*ipm.Profile)
		if !ok {
			return nil, fmt.Errorf("pipeline: %s artifact has unexpected type %T", stage, v)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("pipeline: encoding profile artifact: %w", err)
		}
		return buf.Bytes(), nil
	case StageGraph:
		return encodeAs[*topology.Graph](stage, v)
	case StageAssign:
		return encodeAs[*hfast.Assignment](stage, v)
	case StagePlan:
		p, ok := v.(*Plan)
		if !ok {
			return nil, fmt.Errorf("pipeline: %s artifact has unexpected type %T", stage, v)
		}
		return json.Marshal(planWire{App: p.App, Procs: p.Procs, Assignment: p.Assignment})
	case StageCompare:
		return encodeAs[hfast.Comparison](stage, v)
	case StageNetsim:
		return encodeAs[*FabricResult](stage, v)
	}
	return nil, fmt.Errorf("pipeline: cannot encode unknown stage %q", stage)
}

// DecodeArtifact deserializes a stage artifact off the peer-fill wire,
// returning the same concrete type the stage method builds locally.
func DecodeArtifact(stage string, data []byte) (any, error) {
	return decodeArtifact(stage, data, 0)
}

// decodeArtifact is DecodeArtifact for a fill, which knows the recipe's
// rank count: when procs is positive, a graph artifact must span exactly
// procs ranks, checked before anything is sized by the peer's count.
func decodeArtifact(stage string, data []byte, procs int) (any, error) {
	var v any
	var err error
	switch stage {
	case StageProfile:
		v, err = ipm.DecodeProfile(data)
	case StageGraph:
		v, err = topology.DecodeGraph(data, procs)
	case StageAssign:
		a := new(hfast.Assignment)
		if err = json.Unmarshal(data, a); err == nil {
			v, err = a, a.Validate()
		}
	case StagePlan:
		var w planWire
		if err = json.Unmarshal(data, &w); err == nil {
			if w.Assignment == nil {
				err = fmt.Errorf("plan wire form has no assignment")
			} else if err = w.Assignment.Validate(); err == nil {
				v, err = newPlan(w.App, w.Procs, w.Assignment)
			}
		}
	case StageCompare:
		var c hfast.Comparison
		err = json.Unmarshal(data, &c)
		v = c
	case StageNetsim:
		r := new(FabricResult)
		err = json.Unmarshal(data, r)
		v = r
	default:
		return nil, fmt.Errorf("pipeline: cannot decode unknown stage %q", stage)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: decoding %s artifact: %w", stage, err)
	}
	return v, nil
}
