package ipm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// BenchmarkCollectorEvent measures the per-event collection cost in the
// common case of a tight stencil loop re-hitting one signature: the
// last-key memo should make repeats cheaper than a map lookup.
func BenchmarkCollectorEvent(b *testing.B) {
	c := ipm.NewCollector(0, 0)
	e := mpi.Event{Call: mpi.CallSend, Peer: 3, Bytes: 8192, Region: "step001", T: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.T += 1e-6
		c.Event(e)
	}
}

// BenchmarkCollectorEventMixed rotates through a small working set of
// signatures, the shape of a halo exchange with a few partners.
func BenchmarkCollectorEventMixed(b *testing.B) {
	c := ipm.NewCollector(0, 0)
	events := []mpi.Event{
		{Call: mpi.CallIrecv, Peer: 1, Bytes: 0, Region: "step001"},
		{Call: mpi.CallIrecv, Peer: 2, Bytes: 0, Region: "step001"},
		{Call: mpi.CallIsend, Peer: 1, Bytes: 8192, Region: "step001"},
		{Call: mpi.CallIsend, Peer: 2, Bytes: 8192, Region: "step001"},
		{Call: mpi.CallWaitall, Peer: mpi.NoPeer, Bytes: 0, Region: "step001"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		e.T = float64(i) * 1e-6
		c.Event(e)
	}
}

// BenchmarkCollectorEventOverflow drives the hash past capacity so every
// event takes the coarsening (or catch-all) slow path.
func BenchmarkCollectorEventOverflow(b *testing.B) {
	c := ipm.NewCollector(0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Event(mpi.Event{Call: mpi.CallSend, Peer: i % 512, Bytes: 1000 + i%4096, T: float64(i) * 1e-6})
	}
}

// rankEvent is one event of a recorded world, with the rank that emitted it.
type rankEvent struct {
	rank int
	e    mpi.Event
}

// recorder is the tracer that captures a world's events in the order the
// scheduler produced them, ranks interleaved.
type recorder struct {
	rank   int
	stream *[]rankEvent
}

func (r recorder) Event(e mpi.Event) { *r.stream = append(*r.stream, rankEvent{r.rank, e}) }

// BenchmarkCollectorSkeleton replays what the collector really sees: the
// rank-interleaved event stream of a skeleton run, recorded once, through
// a CollectorSet including Profile. Regions are per time step, so most
// signatures are hit once or twice and every rank switch is a cache miss —
// the case BenchmarkCollectorEvent's one repeated signature does not have.
// ns/event is the whole collection cost per event, B/entry what a profile
// entry costs to allocate.
func BenchmarkCollectorSkeleton(b *testing.B) {
	for _, sh := range []struct {
		app   string
		procs int
	}{{"cactus", 64}, {"paratec", 64}} {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			info, err := apps.Lookup(sh.app)
			if err != nil {
				b.Fatal(err)
			}
			var stream []rankEvent
			w := mpi.NewWorld(sh.procs, mpi.WithCostModel(mpi.DefaultCostModel()),
				mpi.WithTracerFactory(func(rank int) mpi.Tracer { return recorder{rank, &stream} }))
			if err := w.Run(func(c *mpi.Comm) { info.Run(c, apps.Config{Procs: sh.procs}) }); err != nil {
				b.Fatal(err)
			}
			replay := func() *ipm.Profile {
				set := ipm.NewCollectorSet(0)
				tracers := make([]mpi.Tracer, sh.procs)
				for _, re := range stream {
					if tracers[re.rank] == nil {
						tracers[re.rank] = set.Factory(re.rank)
					}
					tracers[re.rank].Event(re.e)
				}
				return set.Profile(sh.app, sh.procs, nil)
			}
			entries := 0
			for _, rp := range replay().Ranks { // also warms the set's scratch
				entries += len(rp.Entries)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*entries), "B/entry")
			b.ReportMetric(float64(len(stream))/float64(entries), "events/entry")
		})
	}
}

// wireShapes are the runs the ledger's stream workloads replay (bench/):
// the decoders' real inputs.
var wireShapes = []struct {
	app   string
	procs int
}{{"cactus", 64}, {"gtc", 64}, {"amr", 64}, {"cactus", 256}, {"amr", 256}}

// BenchmarkDecodeDelta decodes every delta of a run's stream, once per
// iteration; MB/s is over the encoded bytes.
func BenchmarkDecodeDelta(b *testing.B) {
	for _, sh := range wireShapes {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			_, deltas := encodedRun(b, sh.app, sh.procs)
			size := 0
			for _, raw := range deltas {
				size += len(raw)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, raw := range deltas {
					if _, err := ipm.DecodeDelta(raw); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecodeProfile decodes the same runs' batch profiles, the
// artifact a peer fill moves.
func BenchmarkDecodeProfile(b *testing.B) {
	for _, sh := range wireShapes {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			profile, _ := encodedRun(b, sh.app, sh.procs)
			b.SetBytes(int64(len(profile)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ipm.DecodeProfile(profile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameDelta cuts every delta of a run's stream out of one
// body, by the brace matcher and by the canonical-layout candidate; MB/s
// is over the encoded bytes.
func BenchmarkFrameDelta(b *testing.B) {
	for _, sh := range wireShapes[:2] {
		_, deltas := encodedRun(b, sh.app, sh.procs)
		body := bytes.Join(deltas, nil)
		var s ipm.DeltaSplitter
		for _, mode := range []struct {
			name string
			next func() bool
		}{
			{"next", func() bool { _, err := s.Next(); return err == nil }},
			{"candidate", func() bool { ok := s.Candidate() != nil; s.Accept(); return ok }},
		} {
			b.Run(fmt.Sprintf("%s/P%d/%s", sh.app, sh.procs, mode.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					s.Reset(bytes.NewReader(body), len(body))
					for n := 0; mode.next(); n++ {
						if n == len(deltas) {
							b.Fatal("more cuts than deltas")
						}
					}
				}
			})
		}
	}
}
