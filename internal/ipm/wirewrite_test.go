package ipm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/mpi"
)

// oracleEncode is the definition the writer is held to: json.Encoder,
// compact, which is json.Marshal and a newline. v is a Profile or a
// Delta, its zero Version already stamped.
func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// agreeWrite holds WriteJSON of p and of d to the oracle: the same bytes,
// or the same error and nothing written.
func agreeWrite(t testing.TB, p *ipm.Profile, d *ipm.Delta) {
	t.Helper()
	check := func(what string, write func(io.Writer) error, stamped any) {
		t.Helper()
		want, wantErr := oracleEncode(stamped)
		var got bytes.Buffer
		gotErr := write(&got)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() || reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
				t.Fatalf("%s: error %T %v, encoding/json says %T %v", what, gotErr, gotErr, wantErr, wantErr)
			}
			if got.Len() != 0 {
				t.Fatalf("%s: %d bytes written before the error", what, got.Len())
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%s: %v, encoding/json encodes it", what, gotErr)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s differs from encoding/json:\n got %q\nwant %q", what, got.Bytes(), want)
		}
	}
	ps, ds := *p, *d
	if ps.Version == 0 {
		ps.Version = ipm.SchemaVersion
	}
	if ds.Version == 0 {
		ds.Version = ipm.SchemaVersion
	}
	check("profile", p.WriteJSON, ps)
	check("delta", d.WriteJSON, ds)
}

// wireValue builds the Profile and the Delta FuzzWriteWire encodes. shape
// picks nil, empty or filled for Params, Ranks and Entries and a zero or
// set Version; region appears twice in a row, then the empty region.
func wireValue(app, name, region string, tm float64, n int64, shape uint8) (*ipm.Profile, *ipm.Delta) {
	var params map[string]int
	switch shape & 3 {
	case 1:
		params = map[string]int{}
	case 2:
		params = map[string]int{name: int(n)}
	case 3:
		params = map[string]int{name: int(n), name + "x": -1, "": 2, app: 3, region: 4}
	}
	entry := func(region string, tm float64) ipm.Entry {
		return ipm.Entry{
			Key:  ipm.Key{Call: mpi.Call(n % 23), Bytes: int(n), Peer: int(-n), Region: region},
			Stat: ipm.Stat{Count: n, TotalBytes: -n, MaxBytes: int(n >> 7), Time: tm},
		}
	}
	var ranks []ipm.RankProfile
	switch shape >> 2 & 3 {
	case 1:
		ranks = []ipm.RankProfile{}
	case 2:
		ranks = []ipm.RankProfile{{Rank: int(n), Entries: []ipm.Entry{}, Spilled: n}}
	case 3:
		ranks = []ipm.RankProfile{
			{Rank: 0, Entries: []ipm.Entry{entry(region, 0.5), entry(region, tm), entry("", -tm)}},
			{Rank: 1, Spilled: -n},
			{Rank: int(n), Entries: []ipm.Entry{entry(name, tm/3)}},
		}
	}
	version := int(shape >> 4 & 3) // 0 is written as SchemaVersion
	return &ipm.Profile{Version: version, App: app, Procs: int(n), Params: params, Ranks: ranks},
		&ipm.Delta{Version: version, App: app, Procs: int(n), Params: params, Seq: int(n >> 3), Window: region, Ranks: ranks}
}

// FuzzWriteWire holds the hand writer to encoding/json on values built
// from the fuzz input: every string, every number and every nil-or-empty
// choice the two types have, bytes and error alike.
func FuzzWriteWire(f *testing.F) {
	for _, s := range []string{"", "step000", `a"b\c`, "<script>&amp;", "\xff\xfe", "café", "line sep", "tab\tnul\x00", "del\x7f", "~ !"} {
		f.Add("cactus", "steps", s, 0.25, int64(64), uint8(0xff))
		f.Add(s, s, "init", 1.5, int64(-3), uint8(0x0f))
	}
	for _, tm := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 123456789e-17, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("gtc", "scale", "step001", tm, int64(math.MaxInt64), uint8(0x0f))
	}
	for shape := uint8(0); shape < 16; shape++ { // nil, empty and filled, each against each
		f.Add("amr", "steps", "step000", 0.5, int64(7), shape)
	}
	f.Fuzz(func(t *testing.T, app, name, region string, tm float64, n int64, shape uint8) {
		p, d := wireValue(app, name, region, tm, n, shape)
		agreeWrite(t, p, d)
	})
}

// TestWriteJSONAllocs is the clock-free gate on the writer: a profile of
// any size costs its chunk buffer and the sorted Params names, not an
// allocation per entry and not a copy of the value.
func TestWriteJSONAllocs(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const budget = 4 // reads 2: the chunk buffer and the names
	if allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Fatalf("WriteJSON of cactus/64 (%d bytes): %.0f allocations, budget %d", buf.Len(), allocs, budget)
	}
}

// TestWriteJSONConcurrent: a cached profile is shared by every request
// that serves it, so writing one must not write to it — a zero Version
// is emitted as SchemaVersion and stays zero. Run under -race.
func TestWriteJSONConcurrent(t *testing.T) {
	p, err := apps.ProfileRun("cactus", apps.Config{Procs: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	d := *ds[0]
	p.Version, d.Version = 0, 0
	for _, v := range []struct {
		name    string
		write   func(io.Writer) error
		version *int
	}{{"profile", p.WriteJSON, &p.Version}, {"delta", d.WriteJSON, &d.Version}} {
		const writers = 4
		out := make([]bytes.Buffer, writers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := v.write(&out[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if *v.version != 0 {
			t.Errorf("%s: WriteJSON set Version to %d on its receiver", v.name, *v.version)
		}
		want := fmt.Sprintf(`{"Version":%d,`, ipm.SchemaVersion)
		for i := range out {
			if !bytes.HasPrefix(out[i].Bytes(), []byte(want)) || !bytes.Equal(out[i].Bytes(), out[0].Bytes()) {
				t.Errorf("%s: writer %d wrote %.40q, want the bytes of writer 0 opening %q", v.name, i, out[i].Bytes(), want)
			}
		}
	}
}

// BenchmarkWriteDelta encodes every delta of a run's stream, once per
// iteration; MB/s is over the encoded bytes.
func BenchmarkWriteDelta(b *testing.B) {
	for _, sh := range writeShapes {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			_, ds := writeRun(b, sh.app, sh.procs)
			var buf bytes.Buffer
			size := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size = 0
				for _, d := range ds {
					buf.Reset()
					if err := d.WriteJSON(&buf); err != nil {
						b.Fatal(err)
					}
					size += buf.Len()
				}
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkWriteProfile encodes the same runs' batch profiles: what a
// supplied profile costs to name and a peer fill to send.
func BenchmarkWriteProfile(b *testing.B) {
	for _, sh := range writeShapes {
		b.Run(fmt.Sprintf("%s/P%d", sh.app, sh.procs), func(b *testing.B) {
			p, _ := writeRun(b, sh.app, sh.procs)
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := p.WriteJSON(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// writeShapes are the runs BenchmarkCollectorSkeleton records.
var writeShapes = []struct {
	app   string
	procs int
}{{"cactus", 64}, {"paratec", 64}}

// writeRun profiles app at procs ranks and returns the profile and its
// delta stream.
func writeRun(b *testing.B, app string, procs int) (*ipm.Profile, []*ipm.Delta) {
	b.Helper()
	p, err := apps.ProfileRun(app, apps.Config{Procs: procs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ipm.SplitDeltas(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, ds
}
