package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// goldenProfileSHA pins the wire bytes of every skeleton's profile at
// P=64, Seed 7, default steps and scale: the SHA-256 of Profile.WriteJSON
// and its length. A change to the runtime or the collector that moves one
// count, one key or one modeled nanosecond fails here, and so does an
// encoding that grows, without a clock.
//
// cactus, lbmhd, gtc, paratec and amr receive from named sources only, so
// their bytes never depended on how ranks were scheduled; superlu
// (AnySource) and pmemd (Waitany) were pinned once the world's scheduler
// made rank order a function of the program. The hashes are of the
// compact encoding. The indented layout the wire had before hashed, once
// re-indented by json.Indent with one space a level and a newline, to the
// values in the history of this file: only the spacing moved.
var goldenProfileSHA = []struct {
	app  string
	sha  string
	size int64
}{
	{"cactus", "a93392703a7358e545abac2abb2ba90a1f7b10e09b8e849951a681bc847e2960", 886582},
	{"lbmhd", "181fe0d03a8b741f5d8f1bed5128e3077e9beb2cf0adaa38bcf55f0ea9e3960c", 1828488},
	{"gtc", "af9076e89f0c15454f137bd8139bf63b1f92267e630400e8759986f07a88af8d", 334843},
	{"superlu", "70923d04fdebb86464c6b34801d7d8a9e51d25d26db855f93e5687ec5b11c385", 6006526},
	{"pmemd", "e0dd51386f97a219ae6a1679e939fdb9e34cac973042bf10e1a9872400d1df62", 9271866},
	{"paratec", "097b2670315ec6a7fdef395e7657c3fa63fbb61e16ba7c50efe8a0d22c8af6d7", 10359226},
	{"amr", "00504199e84eb8211908a6a1e24711bb8bad4069114b0888383a21c7dbcd2087", 1875152},
}

// byteCounter counts what is written to it.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// profileSHA runs one skeleton and hashes its profile's wire bytes,
// returning the hash and how many bytes there were.
func profileSHA(t *testing.T, app string, cfg Config) (string, int64) {
	t.Helper()
	p, err := ProfileRun(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var n byteCounter
	if err := p.WriteJSON(io.MultiWriter(h, &n)); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), int64(n)
}

func TestProfileGoldenSHA(t *testing.T) {
	for _, g := range goldenProfileSHA {
		t.Run(g.app, func(t *testing.T) {
			got, size := profileSHA(t, g.app, Config{Procs: 64, Seed: 7})
			if size != g.size {
				t.Errorf("%s profile is %d bytes, want %d", g.app, size, g.size)
			}
			if got != g.sha {
				t.Errorf("%s profile SHA-256 = %s, want %s", g.app, got, g.sha)
			}
		})
	}
}

// TestProfileBytesStable: one recipe, one artifact. Every skeleton's
// profile hashes to a single SHA-256 over 20 runs with GOMAXPROCS cycled
// through 1, 2 and 4 — what a rank observes is decided by the world's
// scheduler, never by Go's.
func TestProfileBytesStable(t *testing.T) {
	type shape struct {
		app   string
		procs int
	}
	var shapes []shape
	for _, g := range goldenProfileSHA {
		shapes = append(shapes, shape{g.app, 64})
	}
	shapes = append(shapes, shape{"cactus", 256}, shape{"gtc", 256})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(t *testing.T) {
			seen := map[string]int{}
			for run := 0; run < 20; run++ {
				runtime.GOMAXPROCS([]int{1, 2, 4}[run%3])
				sha, _ := profileSHA(t, sh.app, Config{Procs: sh.procs, Seed: 7})
				seen[sha]++
			}
			if len(seen) != 1 {
				t.Errorf("%d distinct profile hashes over 20 runs: %v", len(seen), seen)
			}
		})
	}
}
