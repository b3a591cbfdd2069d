package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/hints.golden from this build's -t hints")

// TestHintsGolden pins every line of the topology-directive study: the
// declared grid, both fabrics' block counts and routes, and the verdict.
func TestHintsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := Hints(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "hints.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-t hints differs from %s (-update rewrites it):\n%s", golden, got.Bytes())
	}
}
