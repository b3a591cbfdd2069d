package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenProfileSHA pins the wire bytes of every skeleton's profile at
// P=64, Seed 7, default steps and scale: the SHA-256 of Profile.WriteJSON,
// recorded on the commit before the collector's signature table and the
// runtime's request recycling were rewritten. A change to either layer
// that moves one count, one key or one modeled nanosecond fails here.
//
// cactus, lbmhd, gtc, paratec and amr are byte-stable run to run. superlu
// and pmemd are not: their modeled Stat.Time already varied between runs
// of one binary before this test existed, because the virtual clock a
// Waitany / AnySource completion observes depends on which message the
// scheduler happened to land first. Their counts, sizes and partners are
// stable, so those two are hashed with Time cleared (see ROADMAP item 5).
var goldenProfileSHA = []struct {
	app       string
	clearTime bool
	sha       string
}{
	{"cactus", false, "39c4a030c800bc571e3d4240318cef3eb285769dacdb27ac5dbf9b617abfb6c2"},
	{"lbmhd", false, "6be718822f8d380addbfd10b0e20e5d818e07749108eafd3933880ae921de8c6"},
	{"gtc", false, "3abd3f35e89727339bf574fa69ace066a9009eb8e60941727b596885445a0fc0"},
	{"superlu", true, "568428b6086a72ec8ef0f7a8d60d491550e86c509949760d529b5532267fa80e"},
	{"pmemd", true, "41d002c2c48a285a8e4e838755ff6701a9558c311979822e619efc0025cbb99d"},
	{"paratec", false, "3519cb1382e52a463ca8f63696b62ca25f4ee667010dff9e9d60d23987656f24"},
	{"amr", false, "395d2e2e8d4bdb9bb67fcac16ecbd91bc4a781c2bcc56bdc417dec085db97c18"},
}

func TestProfileGoldenSHA(t *testing.T) {
	for _, g := range goldenProfileSHA {
		t.Run(g.app, func(t *testing.T) {
			p, err := ProfileRun(g.app, Config{Procs: 64, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if g.clearTime {
				for i := range p.Ranks {
					for j := range p.Ranks[i].Entries {
						p.Ranks[i].Entries[j].Stat.Time = 0
					}
				}
			}
			h := sha256.New()
			if err := p.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
				t.Errorf("%s profile SHA-256 = %s, want %s", g.app, got, g.sha)
			}
		})
	}
}
