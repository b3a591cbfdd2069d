package analysis

import (
	"math"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
	"github.com/hfast-sim/hfast/internal/topology"
)

func hist(pairs ...int) []ipm.SizeCount {
	var out []ipm.SizeCount
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, ipm.SizeCount{Bytes: pairs[i], Count: int64(pairs[i+1])})
	}
	return out
}

func TestCDF(t *testing.T) {
	cdf := CDF(hist(100, 1, 1000, 2, 10000, 1))
	if len(cdf) != 3 {
		t.Fatalf("cdf length %d", len(cdf))
	}
	if cdf[0].Pct != 25 || cdf[1].Pct != 75 || cdf[2].Pct != 100 {
		t.Errorf("cdf percentages wrong: %+v", cdf)
	}
	if CDF(nil) != nil {
		t.Error("empty histogram should give nil CDF")
	}
}

func TestPctAtOrBelow(t *testing.T) {
	h := hist(100, 5, 2048, 3, 100000, 2)
	if p := PctAtOrBelow(h, 2048); p != 80 {
		t.Errorf("pct ≤ 2048 = %g, want 80", p)
	}
	if p := PctAtOrBelow(h, 1); p != 0 {
		t.Errorf("pct ≤ 1 = %g, want 0", p)
	}
	if p := PctAtOrBelow(nil, 10); p != 0 {
		t.Errorf("empty pct = %g", p)
	}
}

func TestMedian(t *testing.T) {
	if m := Median(hist(10, 1, 20, 1, 30, 1)); m != 20 {
		t.Errorf("odd median %d, want 20", m)
	}
	if m := Median(hist(10, 9, 1000, 1)); m != 10 {
		t.Errorf("skewed median %d, want 10", m)
	}
	if m := Median(nil); m != -1 {
		t.Errorf("empty median %d, want -1", m)
	}
	// Weighted: the 50th-percentile call, not the 50th-percentile size.
	if m := Median(hist(64, 100, 1<<20, 99)); m != 64 {
		t.Errorf("weighted median %d, want 64", m)
	}
}

func TestCallMix(t *testing.T) {
	counts := map[mpi.Call]int64{
		mpi.CallIsend:   40,
		mpi.CallIrecv:   40,
		mpi.CallWaitall: 19,
		mpi.CallBcast:   1,
	}
	mix := CallMix(counts, 2)
	if len(mix) != 4 { // 3 major + Other
		t.Fatalf("mix slices %d: %+v", len(mix), mix)
	}
	if mix[0].Pct != 40 || mix[2].Call != mpi.CallWaitall {
		t.Errorf("mix order wrong: %+v", mix)
	}
	last := mix[len(mix)-1]
	if last.Call != OtherCall || last.Count != 1 {
		t.Errorf("other slice wrong: %+v", last)
	}
	if CallMix(nil, 1) != nil {
		t.Error("empty counts should give nil mix")
	}
}

// syntheticProfile builds a profile with known traffic by running a tiny
// world.
func syntheticProfile(t *testing.T) *ipm.Profile {
	t.Helper()
	set := ipm.NewCollectorSet(0)
	w := mpi.NewWorld(4, mpi.WithTracerFactory(set.Factory))
	err := w.Run(func(c *mpi.Comm) {
		c.RegionBegin("init")
		if c.Rank() == 0 {
			c.Send(1, 1, mpi.Size(1<<20))
		} else if c.Rank() == 1 {
			c.Recv(0, 1)
		}
		c.RegionEnd()
		c.RegionBegin("step000")
		next := (c.Rank() + 1) % 4
		prev := (c.Rank() + 3) % 4
		c.Sendrecv(next, 2, mpi.Size(64<<10), prev, 2)
		c.Allreduce(mpi.Size(8))
		c.RegionEnd()
	})
	if err != nil {
		t.Fatal(err)
	}
	return set.Profile("ringapp", 4, nil)
}

func TestSummarizeSteadyStateExcludesInit(t *testing.T) {
	p := syntheticProfile(t)
	s, err := Summarize(p, ipm.SteadyState, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cutoff != topology.DefaultCutoff {
		t.Errorf("cutoff defaulting broken: %d", s.Cutoff)
	}
	if s.MedianPTPBuf != 64<<10 {
		t.Errorf("median PTP %d, want 65536 (init 1MB must be excluded)", s.MedianPTPBuf)
	}
	if s.TDCMax != 2 || s.TDCAvg != 2 {
		t.Errorf("ring TDC (%d,%g), want (2,2)", s.TDCMax, s.TDCAvg)
	}
	if s.MedianCollBuf != 8 {
		t.Errorf("median collective %d, want 8", s.MedianCollBuf)
	}
	// 2 sendrecv-ish calls... each rank: 1 sendrecv + 1 allreduce = 50/50.
	if math.Abs(s.PTPCallPct-50) > 0.01 || math.Abs(s.CollCallPct-50) > 0.01 {
		t.Errorf("call split %.1f/%.1f, want 50/50", s.PTPCallPct, s.CollCallPct)
	}
	if math.Abs(s.FCNUtil-2.0/3.0) > 1e-9 {
		t.Errorf("FCN util %g, want 2/3", s.FCNUtil)
	}
}

func ringG(n int, size int) *topology.Graph {
	g := topology.MustGraph(n)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 1, int64(size), size)
	}
	return g
}

func TestClassifyCases(t *testing.T) {
	// Case iv: complete graph with big messages.
	full := topology.MustGraph(16)
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			full.AddTraffic(i, j, 1, 32<<10, 32<<10)
		}
	}
	if c := Classify(full, nil); c != CaseIV {
		t.Errorf("complete graph classified %s, want iv", c)
	}

	// Case iii via max≫avg: ring plus a hub.
	star := ringG(32, 1<<20)
	for j := 2; j < 30; j++ {
		star.AddTraffic(0, j, 1, 1<<20, 1<<20)
	}
	if c := Classify(star, nil); c != CaseIII {
		t.Errorf("hub graph classified %s, want iii", c)
	}

	// Case iii via dense-raw/sparse-thresholded (SuperLU signature).
	sl := ringG(32, 1<<20)
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			sl.AddTraffic(i, j, 1, 64, 64) // tiny messages to everyone
		}
	}
	if c := Classify(sl, nil); c != CaseIII {
		t.Errorf("superlu-like graph classified %s, want iii", c)
	}

	// Case i: mesh-embeddable bounded pattern (with oracle).
	ring := ringG(16, 1<<20)
	yes := func(*topology.Graph) bool { return true }
	no := func(*topology.Graph) bool { return false }
	if c := Classify(ring, yes); c != CaseI {
		t.Errorf("ring with embed oracle classified %s, want i", c)
	}
	if c := Classify(ring, no); c != CaseII {
		t.Errorf("ring without embedding classified %s, want ii", c)
	}
	// Unknown embedding defaults to case ii (conservative).
	if c := Classify(ring, nil); c != CaseII {
		t.Errorf("ring with nil oracle classified %s, want ii", c)
	}
}
