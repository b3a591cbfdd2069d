package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// goldenProfileSHA pins the wire bytes of every skeleton's profile at
// P=64, Seed 7, default steps and scale: the SHA-256 of Profile.WriteJSON.
// A change to the runtime or the collector that moves one count, one key or
// one modeled nanosecond fails here.
//
// cactus, lbmhd, gtc, paratec and amr receive from named sources only, so
// their bytes never depended on how ranks were scheduled; those five hashes
// were recorded before the collector's signature table and the runtime's
// request recycling were rewritten and have not moved since. superlu
// (AnySource) and pmemd (Waitany) were recorded when the world's scheduler
// made rank order a function of the program — until then their Stat.Time
// differed from run to run and they were hashed with it cleared (those
// two hashes, unchanged by the scheduler, are in the history of this file).
var goldenProfileSHA = []struct {
	app string
	sha string
}{
	{"cactus", "39c4a030c800bc571e3d4240318cef3eb285769dacdb27ac5dbf9b617abfb6c2"},
	{"lbmhd", "6be718822f8d380addbfd10b0e20e5d818e07749108eafd3933880ae921de8c6"},
	{"gtc", "3abd3f35e89727339bf574fa69ace066a9009eb8e60941727b596885445a0fc0"},
	{"superlu", "b7fc28581e4a27b4b0ca117c2835c6d9f1f96eec6c41fecfda19c76e318a9432"},
	{"pmemd", "1aa8ebd1cdab234b1efb86e78f0284b0206653580a5671f5b5159f86146c29db"},
	{"paratec", "3519cb1382e52a463ca8f63696b62ca25f4ee667010dff9e9d60d23987656f24"},
	{"amr", "395d2e2e8d4bdb9bb67fcac16ecbd91bc4a781c2bcc56bdc417dec085db97c18"},
}

// profileSHA runs one skeleton and hashes its profile's wire bytes.
func profileSHA(t *testing.T, app string, cfg Config) string {
	t.Helper()
	p, err := ProfileRun(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := p.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestProfileGoldenSHA(t *testing.T) {
	for _, g := range goldenProfileSHA {
		t.Run(g.app, func(t *testing.T) {
			if got := profileSHA(t, g.app, Config{Procs: 64, Seed: 7}); got != g.sha {
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
				seen[profileSHA(t, sh.app, Config{Procs: sh.procs, Seed: 7})]++
			}
			if len(seen) != 1 {
				t.Errorf("%d distinct profile hashes over 20 runs: %v", len(seen), seen)
			}
		})
	}
}
