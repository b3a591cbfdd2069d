package topology

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestGraphJSONRoundTrip pins the wire contract the clustered artifact
// tier depends on: encode → decode → re-encode is byte-identical, and the
// decoded graph answers every query like the original.
func TestGraphJSONRoundTrip(t *testing.T) {
	g := MustGraph(8)
	mustAdd := func(i, j int, msgs, bytes int64, max int) {
		t.Helper()
		if err := g.AddTraffic(i, j, msgs, bytes, max); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 10, 4096, 512)
	mustAdd(1, 2, 3, 100, 100)
	mustAdd(7, 0, 1, 1<<20, 1<<20)
	mustAdd(0, 1, 2, 64, 4096) // merge into an existing edge

	first, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\nfirst:  %s\nsecond: %s", first, second)
	}
	if back.P != g.P || back.EdgeCount() != g.EdgeCount() {
		t.Fatalf("decoded shape P=%d E=%d, want P=%d E=%d", back.P, back.EdgeCount(), g.P, g.EdgeCount())
	}
	for i := 0; i < g.P; i++ {
		for j := 0; j < g.P; j++ {
			if g.Vol(i, j) != back.Vol(i, j) || g.Msgs(i, j) != back.Msgs(i, j) || g.MaxMsg(i, j) != back.MaxMsg(i, j) {
				t.Fatalf("edge (%d,%d) diverges after round trip", i, j)
			}
		}
	}
}

// TestGraphJSONRejectsMalformed covers the validation paths: bad size,
// out-of-range endpoints, self edges, edges out of the order MarshalJSON
// writes, garbage.
func TestGraphJSONRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"zero size":    `{"p":0,"edges":[]}`,
		"out of range": `{"p":4,"edges":[{"i":0,"j":9,"vol":1,"msgs":1,"max_msg":1}]}`,
		"self edge":    `{"p":4,"edges":[{"i":2,"j":2,"vol":1,"msgs":1,"max_msg":1}]}`,
		"i above j":    `{"p":4,"edges":[{"i":3,"j":1,"vol":1,"msgs":1,"max_msg":1}]}`,
		"j descending": `{"p":4,"edges":[{"i":0,"j":2,"vol":1,"msgs":1,"max_msg":1},{"i":0,"j":1,"vol":1,"msgs":1,"max_msg":1}]}`,
		"i descending": `{"p":4,"edges":[{"i":1,"j":2,"vol":1,"msgs":1,"max_msg":1},{"i":0,"j":3,"vol":1,"msgs":1,"max_msg":1}]}`,
		"repeated":     `{"p":4,"edges":[{"i":0,"j":1,"vol":1,"msgs":1,"max_msg":1},{"i":0,"j":1,"vol":1,"msgs":1,"max_msg":1}]}`,
		"garbage":      `{"p":`,
	} {
		var g Graph
		if err := json.Unmarshal([]byte(data), &g); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// FuzzGraphWire holds the graph decoder to its wire contract on
// arbitrary bodies over a known rank count: a body is refused, or it
// decodes to a graph whose encoding carries the body's own rank count
// and edges and decodes back to the same bytes. Never a panic.
func FuzzGraphWire(f *testing.F) {
	f.Add(uint8(8), []byte(`{"p":8,"edges":[{"i":0,"j":1,"vol":4160,"msgs":12,"max_msg":4096},{"i":0,"j":7,"vol":1048576,"msgs":1,"max_msg":1048576}]}`))
	f.Add(uint8(4), []byte(`{"p":4,"edges":[{"i":0,"j":2,"vol":0,"msgs":0,"max_msg":0},{"i":1,"j":3,"vol":5,"msgs":1,"max_msg":5}]}`))
	f.Add(uint8(4), []byte(`{"p":4,"edges":[{"i":0,"j":2,"vol":1,"msgs":1,"max_msg":1},{"i":0,"j":1,"vol":1,"msgs":1,"max_msg":1}]}`))
	f.Add(uint8(1), []byte(`{"p":1,"edges":[]}`))
	f.Add(uint8(64), []byte(`{"p":1099511627776,"edges":[]}`))
	f.Fuzz(func(t *testing.T, procs uint8, data []byte) {
		g, err := DecodeGraph(data, 1+int(procs))
		if err != nil {
			return
		}
		first, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted, then failed to encode: %v", err)
		}
		var in, out graphWire
		if json.Unmarshal(data, &in) != nil || json.Unmarshal(first, &out) != nil {
			t.Fatal("accepted a body, or wrote one, that does not decode as the wire form")
		}
		if in.P != out.P || len(in.Edges) != len(out.Edges) || (len(in.Edges) > 0 && !reflect.DeepEqual(in.Edges, out.Edges)) {
			t.Fatalf("decoded %s, re-encoded %s", data, first)
		}
		back, err := DecodeGraph(first, g.P)
		if err != nil {
			t.Fatalf("refused its own encoding %s: %v", first, err)
		}
		if second, _ := json.Marshal(back); !bytes.Equal(first, second) {
			t.Fatalf("encode → decode → encode moved:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
