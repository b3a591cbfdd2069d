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
// made rank order a function of the program, and moved once, in Stat.Time
// only, when collectives came to release their members at the last
// arrival. The hashes are of the compact encoding. The indented layout the
// wire had before hashed, once re-indented by json.Indent with one space a
// level and a newline, to the values in the history of this file: only the
// spacing moved.
var goldenProfileSHA = []struct {
	app  string
	sha  string
	size int64
}{
	{"cactus", "a93392703a7358e545abac2abb2ba90a1f7b10e09b8e849951a681bc847e2960", 886582},
	{"lbmhd", "181fe0d03a8b741f5d8f1bed5128e3077e9beb2cf0adaa38bcf55f0ea9e3960c", 1828488},
	{"gtc", "af9076e89f0c15454f137bd8139bf63b1f92267e630400e8759986f07a88af8d", 334843},
	{"superlu", "1a3668889abc91a6a4ec86494b8bd024c419bbadf57cd764c407785f74bffbac", 6006526},
	{"pmemd", "9a7d36e031144b96acd6143c84b66d4d4ebde7d94e0b534c5caf31a02de6727f", 9271862},
	{"paratec", "097b2670315ec6a7fdef395e7657c3fa63fbb61e16ba7c50efe8a0d22c8af6d7", 10359226},
	{"amr", "00504199e84eb8211908a6a1e24711bb8bad4069114b0888383a21c7dbcd2087", 1875152},
}

// goldenWildcardSHA pins the wildcard skeletons at non-power-of-two P,
// where the order in which a collective releases its members reaches the
// Time a rank's AnySource (superlu) or Waitany (pmemd) observes; P=64
// alone let that order change unseen. Columns as goldenProfileSHA's.
var goldenWildcardSHA = []struct {
	app   string
	procs int
	seed  int64
	sha   string
	size  int64
}{
	{"pmemd", 13, 5, "a7951e76b756c7b5a817408866dda485e28b8ddfd25350af022bc02247b4c7c1", 419059},
	{"pmemd", 48, 3, "e8573c7ca4f95be9c016328d2353913db063f7e8b98cc5e5bcdb29029e4663b8", 5271602},
	{"pmemd", 100, 11, "c6385dcaa3746bacbf065c719c02f48f671b75015e5b2b05c9260afb62e63578", 22411219},
	{"superlu", 13, 5, "2cc46410b9d9e7ce30b4b8ce72b6862fed03c660518875f035ed623b64a628d6", 1217544},
	{"superlu", 48, 3, "f6573281e9e7df2c7b0c7e711203f5ae43e150f93abdd3e31580821e87514f67", 4773261},
	{"superlu", 100, 11, "f97ac31fb1decffef732bc000e519fa6da43ddf23720daf5a2e05a84a5a4b4a7", 11816232},
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

// checkProfileSHA fails t unless app's profile under cfg has the pinned
// hash and size.
func checkProfileSHA(t *testing.T, app string, cfg Config, sha string, size int64) {
	t.Helper()
	got, n := profileSHA(t, app, cfg)
	if n != size {
		t.Errorf("%s profile is %d bytes, want %d", app, n, size)
	}
	if got != sha {
		t.Errorf("%s profile SHA-256 = %s, want %s", app, got, sha)
	}
}

func TestProfileGoldenSHA(t *testing.T) {
	for _, g := range goldenProfileSHA {
		t.Run(g.app, func(t *testing.T) {
			checkProfileSHA(t, g.app, Config{Procs: 64, Seed: 7}, g.sha, g.size)
		})
	}
}

func TestWildcardGoldenSHA(t *testing.T) {
	for _, g := range goldenWildcardSHA {
		t.Run(fmt.Sprintf("%s/P%d/seed%d", g.app, g.procs, g.seed), func(t *testing.T) {
			checkProfileSHA(t, g.app, Config{Procs: g.procs, Seed: g.seed}, g.sha, g.size)
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
