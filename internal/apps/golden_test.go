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
// arrival. All seven moved in Stat.Time only when region events came to
// carry the rank's clock, and pmemd once more when Waitany came to be
// traced after its wait, so that the wait is charged to the Waitany. The
// hashes are of the compact encoding. The indented layout the wire had
// before hashed, once re-indented by json.Indent with one space a level
// and a newline, to the values in the history of this file: only the
// spacing moved.
var goldenProfileSHA = []struct {
	app  string
	sha  string
	size int64
}{
	{"cactus", "502c6500aea893cce88c11cd4ee42edfdf05675c61fd91fe81f532c2af3b666c", 886707},
	{"lbmhd", "e060c0ab82f55c843f17062e84f9bc5750b8c69ad181d6e430c23d61dfd867f0", 1830408},
	{"gtc", "dd4c458805cfcbb35475775644c7013b4a88925bef63fde40e020264f55f1b2b", 335099},
	{"superlu", "d707daa41fd73641d3bd82e6707ea99ebcacc3348fe7f14a76f91caf3eff1410", 6006858},
	{"pmemd", "a3f089df916a13fb223b835195cee37e314b97e75d25a46af1ab304056fdd44c", 9271789},
	{"paratec", "fd4894040f7b640807d3984c88d7dc06a35089ce921ec31fc79f00b15cc56cdb", 10359987},
	{"amr", "7d2b230b2f46fbffcbad6ae679f5ca2e7cdd460635713ce0cc47fb6536a7bac2", 1875751},
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
	{"pmemd", 13, 5, "c2c153d03afb0a1ca1613be4a8b56f91f9fd01897d3b37cc9a2ecb98154efd3c", 419095},
	{"pmemd", 48, 3, "374c7276f779b71d6c7909f3b6c3ae4dd63ecd669e3622ae2201844371e77fb6", 5271774},
	{"pmemd", 100, 11, "bd83bf49f72a5b9d2f7727e99841808fa9097936d8d4257733ec1c21cef5fd3f", 22417996},
	{"superlu", 13, 5, "2bccdc44d744954d28817e8f79d64ba387ba43645d45d245c7700fbdc9587e22", 1217575},
	{"superlu", 48, 3, "2fd73eba50295d7526be5e2f52d831954668e2f90b1f55de1ed9e25dd3512e29", 4773442},
	{"superlu", 100, 11, "6cc69c2b7b3ebef5bf24cf6e0e20ade43789b47fcf099b8897a14d2618fb4eed", 11817021},
}

// goldenGridSHA pins the grid skeletons at non-cube P, where NearCube's
// extents (2×1×1, 13×1×1, 4×4×3, 5×5×4) make a dimension wrap onto the
// rank itself, fold its ±1 neighbours into one, or end at an open edge:
// the cases P=64's 4×4×4 never reaches. Columns as goldenWildcardSHA's.
var goldenGridSHA = []struct {
	app   string
	procs int
	seed  int64
	sha   string
	size  int64
}{
	{"cactus", 2, 1, "a94ae07db32d00ba4f50e76555b5f97590d065c441b3d9119aad832b42d0f0f3", 9712},
	{"cactus", 13, 5, "331bbb95ef030a9e046ae350b961eab42f74148653643e292171a124da4eb393", 87202},
	{"cactus", 48, 3, "39ada89c83ef3457886adcfa15dec172a8bf781f906abd8aa6e26ab2b8b6387d", 664790},
	{"cactus", 100, 11, "c52166dcefc39b74352a1fe5ff8fe505b05b8f8d33313913b07947ca8848697b", 1431673},
	{"lbmhd", 2, 1, "11251cda48029a4d1d60acc7c9d382ed6b0c4e7468f3c093dc4527589c561197", 12069},
	{"lbmhd", 13, 5, "f46aa785ab88a33393094bd8ae0e2d1a821acb7bd749acd2e45eef46f3b827ff", 106478},
	{"lbmhd", 48, 3, "489b88770528c9ed2b68fe26f4a80aa2a9f77557fa03bfa8b008d067f0037b46", 1372344},
	{"lbmhd", 100, 11, "144a405f33d31b70d17f79391c3fcfc2d32629c3e058eec0ed0bb62fdb44b483", 2862553},
	{"amr", 2, 1, "e1bc1acd01edced729cd961d399882c2d2d9d7f7cfd62b29b0bb47c2f07e2e32", 8320},
	{"amr", 13, 5, "68d7aec206d450817fd41a0c7e7762a4c8085bc68ef02f9405b605830396772c", 266022},
	{"amr", 48, 3, "4139a7edd6761dfb445ab10b9b5de941946cc8b8262a8a210c0887901ef2a535", 1352441},
	{"amr", 100, 11, "c213d1780ffdbb879e1aabf0be3e2211049c230c40c4015b6beacb214bcc523d", 2888118},
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

func TestGridGoldenSHA(t *testing.T) {
	for _, g := range goldenGridSHA {
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
