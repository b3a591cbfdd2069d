package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
)

// The stream endpoint frames each delta by guess and verify (foldBody):
// these tests hold it to "every body ends as if each delta had been cut
// by the brace matcher", and read which way a delta was framed from the
// hfastd_stream_frames_total counters.

// frames reads the server's frame counters.
func frames(s *Server) (candidate, exact uint64) {
	snap := s.Metrics().Snapshot()
	return snap.StreamFramesCandidate, snap.StreamFramesExact
}

// reindent re-encodes canonical delta bytes with json.Indent. An indent
// of one space, plus a newline, is the legacy layout: what WriteJSON
// wrote before the wire went compact.
func reindent(t *testing.T, canon []byte, indent string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(canon), "", indent); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func legacy(t *testing.T, canon []byte) []byte {
	t.Helper()
	return append(reindent(t, canon, " "), '\n')
}

// TestStreamFramingEncodings streams one run in every layout a client
// might send: each session must answer and serve exactly what the
// canonical one does. Compact layouts, whatever the spacing between
// deltas, are framed by the candidate; every other layout, the legacy
// indented one included, opens differently, is not searched, and is cut
// by the brace matcher.
func TestStreamFramingEncodings(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	_, ds := splitRun(t, "amr", 32, 8)
	n := uint64(len(ds))
	canon := make([][]byte, len(ds))
	for i, d := range ds {
		canon[i] = encodeDeltas(t, []*ipm.Delta{d})
	}
	each := func(f func(i int, b []byte) []byte) [][]byte {
		out := make([][]byte, len(canon))
		for i, b := range canon {
			out[i] = f(i, b)
		}
		return out
	}

	type result struct {
		resp            StreamResponse
		windows, assign []byte
	}
	stream := func(id string, body []byte) result {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/stream/"+id+"?close=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r result
		if err := json.NewDecoder(resp.Body).Decode(&r.resp); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decoding the response: %v", id, resp.StatusCode, err)
		}
		r.resp.Session = ""
		_, r.windows = getBody(t, ts.URL+"/v1/stream/"+id+"?artifact=windows")
		_, r.assign = getBody(t, ts.URL+"/v1/stream/"+id+"?artifact=assignment")
		return r
	}

	want := stream("canonical", bytes.Join(canon, nil))
	if want.resp.DeltasFolded != len(ds) || want.resp.Phases < 2 || want.resp.Opportunity == nil {
		t.Fatalf("canonical session: %+v", want.resp)
	}
	if c, e := frames(s); c != n || e != 0 {
		t.Fatalf("canonical body: %d candidate and %d exact frames, want %d and 0", c, e, n)
	}

	for _, tc := range []struct {
		name       string
		bodies     [][]byte
		sep        string
		candidates uint64 // the rest are exact
	}{
		{"replayed", canon, "", n},
		{"trimmed", each(func(_ int, b []byte) []byte { return bytes.TrimSpace(b) }), "", n},
		{"spaced", each(func(_ int, b []byte) []byte { return bytes.TrimSpace(b) }), " \t ", n},
		{"crlf", each(func(_ int, b []byte) []byte { return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n")) }), "", n},
		{"legacy", each(func(_ int, b []byte) []byte { return legacy(t, b) }), "", 0},
		{"tabbed", each(func(_ int, b []byte) []byte { return reindent(t, b, "\t") }), "\n", 0},
		{"flush", each(func(_ int, b []byte) []byte { return reindent(t, b, "") }), "", 0},
		{"mixed", each(func(i int, b []byte) []byte {
			switch i % 3 {
			case 1:
				return legacy(t, b)
			case 2:
				return reindent(t, b, "")
			}
			return b
		}), "", (n + 2) / 3},
	} {
		c0, e0 := frames(s)
		got := stream(tc.name, bytes.Join(tc.bodies, []byte(tc.sep)))
		if !bytes.Equal(mustJSON(t, got.resp), mustJSON(t, want.resp)) {
			t.Errorf("%s: response\n%s\nwant\n%s", tc.name, mustJSON(t, got.resp), mustJSON(t, want.resp))
		}
		if !bytes.Equal(got.windows, want.windows) || !bytes.Equal(got.assign, want.assign) {
			t.Errorf("%s: artifacts differ from the canonical session's", tc.name)
		}
		c1, e1 := frames(s)
		if c1-c0 != tc.candidates || e1-e0 != n-tc.candidates {
			t.Errorf("%s: %d candidate and %d exact frames, want %d and %d", tc.name, c1-c0, e1-e0, tc.candidates, n-tc.candidates)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamFramingErrors pins what a body that goes wrong answers — the
// status, the whole message, and how many deltas stay folded — for
// bodies whose candidate is the exact cut (its error stands), is a wrong
// cut (its error is dropped for the exact cut's), or does not exist. The
// expectations were recorded from the commit before candidates existed;
// those of the cases added since are what the brace matcher alone makes
// of the same bodies.
func TestStreamFramingErrors(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	delta := func(seq int) *ipm.Delta {
		return &ipm.Delta{Version: 2, App: "a", Procs: 4, Params: map[string]int{"steps": 2}, Seq: seq, Window: fmt.Sprintf("step%03d", seq),
			Ranks: []ipm.RankProfile{}}
	}
	good0 := string(encodeDeltas(t, []*ipm.Delta{delta(0)}))
	good1 := string(encodeDeltas(t, []*ipm.Delta{delta(1)}))
	// Ranks null spells no "]}": never a candidate, always cut exactly.
	null0 := strings.Replace(good0, `"Ranks":[]`, `"Ranks":null`, 1)
	null1 := strings.Replace(good1, `"Ranks":[]`, `"Ranks":null`, 1)
	flush0 := string(reindent(t, []byte(good0), ""))
	flush1 := string(reindent(t, []byte(good1), ""))
	const seqErr = `pipeline: fold delta 0 ("step000"): trace: delta seq 0 out of order, stream expects 1`

	type tcase struct {
		name, body string
		status     int
		msg        string
		folded     int // deltas in the session afterwards; -1: no session
		candidates uint64
		exact      uint64
	}
	cases := []tcase{
		{"empty", "", 200, "", 0, 0, 0},
		{"canonical pair", good0 + good1, 200, "", 2, 2, 0},
		{"flush pair", flush0 + flush1, 200, "", 2, 0, 2},
		{"Ranks null pair", null0 + null1, 200, "", 2, 0, 2},
		// The peek trap: the candidate ends at an unknown field's "]}",
		// where a peek reads no Procs at all; only the exact cut may be
		// judged.
		{"procs after a nested closer",
			`{"Version":2,"Extra":{"a":[1]},"App":"a","Procs":4,"Seq":0,"Window":"step000"}`, 200, "", 1, 0, 1},
		{"closer spelled in a string", strings.Replace(good0, `"App":"a"`, `"App":"a]}"`, 1), 200, "", 1, 0, 1},
		{"cut inside nested object", "{\n\"Params\":{\"a\":1\n}", 400, "decoding delta 0: unexpected EOF", -1, 0, 0},
		{"cut after a nested closer", `{"Version":2,"Extra":{"a":[1]}`, 400, "decoding delta 0: unexpected EOF", -1, 0, 0},
		{"canonical cut inside its closer", strings.TrimSpace(good0)[:len(strings.TrimSpace(good0))-1], 400, "decoding delta 0: unexpected EOF", -1, 0, 0},
		{"canonical repeated", good0 + good0, 400, seqErr, 1, 1, 1},
		{"flush repeated", flush0 + flush0, 400, seqErr, 1, 0, 2},
		{"garbage after canonical", good0 + "{not json", 400, "decoding delta 1: unexpected EOF", 1, 1, 0},
		{"closer after canonical", good0 + "}", 400, `decoding delta 1: ipm: delta stream: want '{' opening a delta, found '}'`, 1, 1, 0},
		{"canonical with a bad value", strings.Replace(good0, `"Procs":4`, `"Procs":nope`, 1), 400,
			"decoding delta 0: ipm: decoding delta: invalid character 'o' in literal null (expecting 'u')", -1, 0, 1},
		{"canonical over the procs cap", strings.Replace(good0, `"Procs":4`, `"Procs":1048576`, 1), 400,
			"delta procs 1048576 outside (0,1024]", -1, 0, 1},
		{"empty object, then a closer", "{\n}\n}", 400, "delta procs 0 outside (0,1024]", -1, 0, 1},
		{"newline and closer inside a string", "{\n\"a\":\"\n}\"}", 400,
			"decoding delta 0: ipm: decoding delta: invalid character '\\n' in string literal", -1, 0, 1},
		{"string never closed", "{\n\"a\":\"\n}", 400, "decoding delta 0: unexpected EOF", -1, 0, 0},
	}
	for at := 0; ; {
		i := strings.Index(flush0[at:], "\n}")
		if i < 0 || at+i+2 >= len(strings.TrimSpace(flush0)) {
			break
		}
		at += i + 2
		cases = append(cases, tcase{fmt.Sprintf("flush delta cut at %d", at), flush0[:at], 400, "decoding delta 0: unexpected EOF", -1, 0, 0})
	}
	for k, tc := range cases {
		url := fmt.Sprintf("%s/v1/stream/e%d", ts.URL, k)
		c0, e0 := frames(s)
		code, msg := postRaw(t, url, tc.body)
		if code != tc.status || msg != tc.msg {
			t.Errorf("%s: status %d, error %q; want %d, %q", tc.name, code, msg, tc.status, tc.msg)
		}
		resp, data := getBody(t, url)
		var got StreamResponse
		switch {
		case tc.folded < 0:
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: GET afterwards: status %d, want 404", tc.name, resp.StatusCode)
			}
		case resp.StatusCode != http.StatusOK:
			t.Errorf("%s: GET afterwards: status %d", tc.name, resp.StatusCode)
		default:
			if err := json.Unmarshal(data, &got); err != nil || got.TotalDeltas != tc.folded {
				t.Errorf("%s: %d deltas stay folded (%v), want %d", tc.name, got.TotalDeltas, err, tc.folded)
			}
		}
		if c1, e1 := frames(s); c1-c0 != tc.candidates || e1-e0 != tc.exact {
			t.Errorf("%s: %d candidate and %d exact frames, want %d and %d", tc.name, c1-c0, e1-e0, tc.candidates, tc.exact)
		}
	}
}

// TestStreamCloseSharesSnapshot closes sessions that replayed one stream
// at the same moment, by close=1 and by DELETE: they end on one shared
// snapshot, whose opportunity analysis runs once and must read the same
// from every one of them. Meant for the race detector.
func TestStreamCloseSharesSnapshot(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	_, ds := splitRun(t, "amr", 16, 6)
	head, tail := encodeDeltas(t, ds[:len(ds)-1]), encodeDeltas(t, ds[len(ds)-1:])

	const sessions = 6
	for k := 0; k < sessions; k++ {
		if code, msg := postRaw(t, fmt.Sprintf("%s/v1/stream/share%d", ts.URL, k), string(head)); code != http.StatusOK {
			t.Fatalf("session %d: status %d (%s)", k, code, msg)
		}
	}
	got := make([]*OpportunityResponse, sessions)
	var wg sync.WaitGroup
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/stream/share%d", ts.URL, k)
			method, body := http.MethodPost, tail
			if k%2 == 1 { // odd sessions take the last delta first and close by DELETE
				resp, err := http.Post(url, "application/json", bytes.NewReader(tail))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				method, body = http.MethodDelete, nil
			} else {
				url += "?close=1"
			}
			req, err := http.NewRequest(method, url, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out StreamResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || !out.Closed {
				t.Errorf("session %d: status %d, closed %v, %v", k, resp.StatusCode, out.Closed, err)
				return
			}
			got[k] = out.Opportunity
		}(k)
	}
	wg.Wait()
	for k := range got {
		if got[k] == nil || got[0] == nil || *got[k] != *got[0] || got[k].Windows == 0 {
			t.Fatalf("session %d reports opportunity %+v, session 0 %+v", k, got[k], got[0])
		}
	}
}

// warmReplayBudgetKB is the ceiling on what replaying one folded cactus
// P=64 session and one folded amr P=64 session allocates, each closed by
// a GET of its assignment artifact. It reads 215 KB, per-request HTTP and
// JSON plumbing for 22 requests: the bodies land in pooled buffers, and
// the amr session's boundary plans and each session's assignment are
// derived-stage hits. A replay that re-plans every boundary and re-encodes the
// artifact reads 414 KB.
const warmReplayBudgetKB = 240

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestWarmReplayAllocBudget gates the warm path without a clock: sessions
// the server has folded before — one POST a delta, close=1 on the last,
// a GET of the assignment artifact, then DELETE — replay as candidate
// frames and chain hits, plan their phase boundaries and serve the
// artifact by derived-stage hits, and allocate next to nothing per delta.
func TestWarmReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; body buffers are reallocated")
	}
	s, _ := testServer(t, Config{Workers: 2})
	h := s.Handler() // called directly: no client or connection in the count
	var runs [][][]byte
	deltas := 0
	for _, app := range []string{"cactus", "amr"} {
		_, ds := splitRun(t, app, 64, 0)
		bodies := make([][]byte, len(ds))
		for i, d := range ds {
			bodies[i] = encodeDeltas(t, []*ipm.Delta{d})
		}
		runs = append(runs, bodies)
		deltas += len(ds)
	}
	do := func(method, url string, body []byte) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, url, w.Code, w.Body)
		}
	}
	replay := func(id string) {
		t.Helper()
		for k, bodies := range runs {
			url := fmt.Sprintf("/v1/stream/%s-%d", id, k)
			for i, body := range bodies {
				u := url
				if i == len(bodies)-1 {
					u += "?close=1"
				}
				do(http.MethodPost, u, body)
			}
			do(http.MethodGet, url+"?artifact=assignment", nil)
			do(http.MethodDelete, url, nil)
		}
	}
	replay("fold") // folds the chains
	if n := s.Pipeline().Metrics().Snapshot()[stagePlan].Builds; n < 3 {
		t.Fatalf("the sessions planned %d phases, want several", n)
	}
	// A sync.Pool keeps a per-P private item that another P cannot take,
	// so a replay whose goroutine moves between Ps misses pooled buffers
	// it filled elsewhere and reallocates them (80 KB to 1.2 MB a replay,
	// seen in about one run in forty). One P, as testing.AllocsPerRun
	// uses, makes the count the path's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A collection empties sync.Pools; one now, with the heap small, keeps
	// the next from falling inside the measurement.
	runtime.GC()
	replay("warm") // fills the pools
	c0, e0 := frames(s)
	derived := func() (builds uint64) {
		snap := s.Pipeline().Metrics().Snapshot()
		for _, stage := range []string{pipeline.StageFold, stagePlan, stageAssignment} {
			builds += snap[stage].Builds
		}
		return builds
	}
	b0 := derived()

	const reps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		replay(fmt.Sprintf("replay%d", i))
	}
	runtime.ReadMemStats(&after)
	kb := (after.TotalAlloc - before.TotalAlloc) / reps / 1024
	t.Logf("%d KB per replay of two sessions, %d deltas", kb, deltas)
	if kb > warmReplayBudgetKB {
		t.Errorf("replaying folded sessions allocates %d KB, over the budget of %d KB", kb, warmReplayBudgetKB)
	}
	if c1, e1 := frames(s); c1-c0 != uint64(reps*deltas) || e1 != e0 {
		t.Errorf("replay framed %d deltas by candidate and %d exactly, want %d and 0", c1-c0, e1-e0, reps*deltas)
	}
	if b1 := derived(); b1 != b0 {
		t.Errorf("replay built %d fold, plan or assignment artifacts, want 0", b1-b0)
	}
}
