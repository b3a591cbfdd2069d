package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/trace"
)

// encodeDeltas concatenates the deltas' canonical wire encodings — the
// chunked body format the stream endpoint ingests.
func encodeDeltas(t *testing.T, ds []*ipm.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range ds {
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// postDeltas POSTs a chunk of deltas to a stream session.
func postDeltas(t *testing.T, url string, ds []*ipm.Delta) (*http.Response, StreamResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(encodeDeltas(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out StreamResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding stream response: %v\n%s", err, data)
		}
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// sendRaw sends a body as is and returns the status and, for an error
// response, its message.
func sendRaw(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding error response: %v", err)
		}
	}
	return resp.StatusCode, e.Error
}

func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	return sendRaw(t, http.MethodPost, url, body)
}

// splitRun profiles an app and splits it into its delta stream.
func splitRun(t *testing.T, app string, procs, steps int) (*ipm.Profile, []*ipm.Delta) {
	t.Helper()
	prof, err := apps.ProfileRun(app, apps.Config{Procs: procs, Steps: steps})
	if err != nil {
		t.Fatalf("profiling %s: %v", app, err)
	}
	ds, err := ipm.SplitDeltas(prof)
	if err != nil {
		t.Fatalf("splitting %s: %v", app, err)
	}
	return prof, ds
}

// TestStreamEndpointLifecycle walks one session through its life: chunked
// POSTs fold deltas and report plans, GET reports status, close freezes
// the session, and DELETE removes it.
func TestStreamEndpointLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	url := ts.URL + "/v1/stream/amr-run"

	_, ds := splitRun(t, "amr", 32, 8)
	if len(ds) < 4 {
		t.Fatalf("need several deltas, got %d", len(ds))
	}

	// First chunk: everything but the last two deltas.
	resp, out := postDeltas(t, url, ds[:len(ds)-2])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: status %d", resp.StatusCode)
	}
	if out.DeltasFolded != len(ds)-2 || out.TotalDeltas != len(ds)-2 {
		t.Fatalf("first chunk folded %d/%d, want %d", out.DeltasFolded, out.TotalDeltas, len(ds)-2)
	}
	if out.App != "amr" || out.Procs != 32 {
		t.Fatalf("stream header %s/%d, want amr/32", out.App, out.Procs)
	}
	if len(out.Plans) == 0 || out.Plans[0].Phase != 0 {
		t.Fatalf("first chunk should report the phase-0 provisioning, got %+v", out.Plans)
	}
	if out.Plans[0].Teardown != 0 || out.Plans[0].Kept != 0 {
		t.Fatalf("phase-0 plan should wire a dark fabric, got %+v", out.Plans[0])
	}

	// Second chunk closes the stream; only the new plans are reported.
	resp, out2 := postDeltas(t, url+"?close=1", ds[len(ds)-2:])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second chunk: status %d", resp.StatusCode)
	}
	if out2.DeltasFolded != 2 || out2.TotalDeltas != len(ds) {
		t.Fatalf("second chunk folded %d (total %d), want 2 (total %d)", out2.DeltasFolded, out2.TotalDeltas, len(ds))
	}
	if !out2.Closed || out2.Opportunity == nil {
		t.Fatalf("closed stream should carry the opportunity summary: %+v", out2)
	}
	if out2.Phases < 2 {
		t.Fatalf("amr stream detected %d phases, want >= 2", out2.Phases)
	}

	// A third POST hits the closed session.
	resp, _ = postDeltas(t, url, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST to closed session: status %d, want 409", resp.StatusCode)
	}

	// GET reports the whole stream with every plan.
	resp, data := getBody(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: status %d", resp.StatusCode)
	}
	var got StreamResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Plans) != got.Phases {
		t.Fatalf("GET reports %d plans for %d phases", len(got.Plans), got.Phases)
	}
	for i, p := range got.Plans {
		if p.Phase != i {
			t.Fatalf("plan %d carries phase %d", i, p.Phase)
		}
	}

	// Metrics counted the folds and boundaries.
	snap := s.metrics.Snapshot()
	if snap.StreamDeltas != uint64(len(ds)) {
		t.Fatalf("metrics counted %d deltas, want %d", snap.StreamDeltas, len(ds))
	}
	if snap.StreamPhases != uint64(got.Phases-1) {
		t.Fatalf("metrics counted %d phase changes, want %d", snap.StreamPhases, got.Phases-1)
	}
	if snap.StreamSessions != 1 {
		t.Fatalf("metrics report %d sessions, want 1", snap.StreamSessions)
	}

	// DELETE removes the session; a second DELETE and a GET both 404.
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, url); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", resp.StatusCode)
	}
	if snap := s.metrics.Snapshot(); snap.StreamSessions != 0 {
		t.Fatalf("sessions gauge %d after DELETE, want 0", snap.StreamSessions)
	}
}

// TestStreamEndpointValidation covers the request-discipline paths: bad
// session ids, bad bodies, bad parameters, and unknown sessions. Bytes
// that are not a delta are reported by their index in the body wherever
// they are caught — by the splitter or by the decode on a fold miss.
func TestStreamEndpointValidation(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	const good = `{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
		msg                      string // the error starts with this
	}{
		{"missing id", "POST", "/v1/stream/", "", http.StatusBadRequest, ""},
		{"bad id chars", "POST", "/v1/stream/no%20spaces", "", http.StatusBadRequest, ""},
		{"bad method", "PUT", "/v1/stream/x", "", http.StatusMethodNotAllowed, ""},
		{"bad body", "POST", "/v1/stream/x1", "{not json", http.StatusBadRequest, "decoding delta 0:"},
		{"bad param", "POST", "/v1/stream/x2?cutoff=nope", "", http.StatusBadRequest, ""},
		{"block size too small", "POST", "/v1/stream/b2?blocksize=2", good, http.StatusBadRequest, "blocksize: hfast: block size must be ≥ 4, got 2"},
		{"block size negative", "POST", "/v1/stream/b3?blocksize=-1", good, http.StatusBadRequest, "blocksize: hfast: block size must be ≥ 4, got -1"},
		{"no session of a bad block size", "GET", "/v1/stream/b2", "", http.StatusNotFound, ""},
		{"no session of a negative block size", "GET", "/v1/stream/b3", "", http.StatusNotFound, ""},
		{"cutoff negative", "POST", "/v1/stream/c1?cutoff=-1", "", http.StatusBadRequest, "pipeline: negative cutoff -1"},
		{"no session of a negative cutoff", "GET", "/v1/stream/c1", "", http.StatusNotFound, ""},
		{"get unknown", "GET", "/v1/stream/ghost", "", http.StatusNotFound, ""},
		{"delete unknown", "DELETE", "/v1/stream/ghost", "", http.StatusNotFound, ""},
		{"procs over cap", "POST", "/v1/stream/x3",
			`{"Version":2,"App":"a","Procs":1048576,"Seq":0,"Window":"step000"}`, http.StatusBadRequest, "delta procs 1048576 outside"},
		{"truncated object", "POST", "/v1/stream/x4", `{"Version":2,"App":"a","Procs":4`, http.StatusBadRequest, "decoding delta 0:"},
		{"array", "POST", "/v1/stream/x5", `[1]`, http.StatusBadRequest, "decoding delta 0:"},
		{"number", "POST", "/v1/stream/x6", `42`, http.StatusBadRequest, "decoding delta 0:"},
		{"balanced but not JSON", "POST", "/v1/stream/x7", `{"Procs":4,"App":nope}`, http.StatusBadRequest, "decoding delta 0:"},
		{"garbage after a delta", "POST", "/v1/stream/x8", good + "{not json", http.StatusBadRequest, "decoding delta 1:"},
		{"bad second delta", "POST", "/v1/stream/x9", good + `{"Procs":4,]}`, http.StatusBadRequest, "decoding delta 1:"},
	} {
		code, msg := sendRaw(t, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if !strings.HasPrefix(msg, tc.msg) {
			t.Errorf("%s: error %q, want prefix %q", tc.name, msg, tc.msg)
		}
	}

	// The delta ahead of the garbage stays folded, as it always has.
	for _, id := range []string{"x8", "x9"} {
		resp, data := getBody(t, ts.URL+"/v1/stream/"+id)
		var got StreamResponse
		if err := json.Unmarshal(data, &got); err != nil || resp.StatusCode != http.StatusOK || got.TotalDeltas != 1 {
			t.Errorf("%s after a 400 on its second delta: status %d, %d deltas folded, want 200 and 1", id, resp.StatusCode, got.TotalDeltas)
		}
	}

	// A delta that carries Procs twice is sized by the first (the peek)
	// and decoded with the last: the fold's own procs check refuses it,
	// every time, and no state of it is built or kept.
	const lying = `{"Version":2,"App":"a","Procs":4,"Procs":8,"Seq":0,"Window":"step000"}`
	foldErrors := func() uint64 { return s.Pipeline().Metrics().Snapshot()[pipeline.StageFold].Errors }
	cached, failed := s.Pipeline().CachedArtifacts(), foldErrors()
	for try := 0; try < 2; try++ {
		if code, msg := postRaw(t, ts.URL+"/v1/stream/liar", lying); code != http.StatusBadRequest || !strings.Contains(msg, "spans 8 ranks but stream folds 4") {
			t.Errorf("lying header, try %d: status %d, error %q", try, code, msg)
		}
	}
	if got := foldErrors() - failed; got != 2 {
		t.Errorf("lying header: %d failed folds, want 2 (one per try, none served from cache)", got)
	}
	if got := s.Pipeline().CachedArtifacts(); got != cached {
		t.Errorf("lying header grew the cache from %d to %d artifacts", cached, got)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/stream/liar"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("session of the refused delta: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamRejectedPostLeavesNoSession pins that a POST which opens a
// session and folds nothing into it does not hold a table slot: with one
// slot, a bad request to one id must not lock out the next id. A POST
// with an empty body is not an error and keeps its session.
func TestStreamRejectedPostLeavesNoSession(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.streams.max = 1
	const good = `{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`

	for _, bad := range []string{
		"{not json",
		`{"Version":2,"App":"a","Procs":1048576,"Seq":0,"Window":"step000"}`,
		`{"Version":2,"App":"a","Procs":4,"Seq":3,"Window":"step000"}`,
	} {
		if code, _ := postRaw(t, ts.URL+"/v1/stream/a", bad); code != http.StatusBadRequest {
			t.Fatalf("POST %.20q: status %d, want 400", bad, code)
		}
		if resp, _ := getBody(t, ts.URL+"/v1/stream/a"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET after rejected POST %.20q: status %d, want 404", bad, resp.StatusCode)
		}
		if n := s.metrics.Snapshot().StreamSessions; n != 0 {
			t.Fatalf("sessions gauge %d after rejected POST %.20q, want 0", n, bad)
		}
	}
	if code, msg := postRaw(t, ts.URL+"/v1/stream/b", good); code != http.StatusOK {
		t.Fatalf("good POST after the rejected ones: status %d (%s), want 200", code, msg)
	}
	// A session with deltas in it outlives a bad request.
	if code, _ := postRaw(t, ts.URL+"/v1/stream/b", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad POST to a live session: status %d, want 400", code)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/stream/b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live session after a bad POST: status %d, want 200", resp.StatusCode)
	}
	if code, _ := sendRaw(t, http.MethodDelete, ts.URL+"/v1/stream/b", ""); code != http.StatusOK {
		t.Fatalf("DELETE: status %d, want 200", code)
	}

	// An empty body opens the session and is no error: it stays, even
	// through a bad request that did not create it.
	if code, _ := postRaw(t, ts.URL+"/v1/stream/c", ""); code != http.StatusOK {
		t.Fatalf("empty POST: status %d, want 200", code)
	}
	if code, _ := postRaw(t, ts.URL+"/v1/stream/c", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad POST to the empty session: status %d, want 400", code)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/stream/c"); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty session: status %d, want 200", resp.StatusCode)
	}
}

// TestStreamRejectedPostRace drives the discard path from several
// clients at once — rejected, accepted and deleting requests racing on
// two ids — for the race detector and for the lock order between the
// table and a session: every request ends, with a status the API names.
func TestStreamRejectedPostRace(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	const good = `{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				url := fmt.Sprintf("%s/v1/stream/r%d", ts.URL, (g+k)%2)
				method, body := http.MethodPost, "{not json"
				switch (g + k/2) % 3 {
				case 1:
					body = good
				case 2:
					method, body = http.MethodDelete, ""
				}
				req, err := http.NewRequest(method, url, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
				default:
					t.Errorf("%s %s: status %d", method, url, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamConcurrentSessionsPooledBuffers streams several runs at once,
// one delta a POST, with rejected bodies in between, so splitters — and
// the buffers deltas are decoded out of — go round the pool while other
// requests are mid-fold: every session must still end at the batch
// pipeline's assignment, and the race detector must see no buffer in two
// requests' hands.
func TestStreamConcurrentSessionsPooledBuffers(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	pl := pipeline.New(pipeline.Options{})
	type run struct {
		app    string
		bodies [][]byte
		want   []byte
	}
	var runs []run
	for _, app := range []string{"cactus", "gtc", "amr", "superlu"} {
		prof, ds := splitRun(t, app, 16, 3)
		r := run{app: app}
		for _, d := range ds {
			r.bodies = append(r.bodies, encodeDeltas(t, []*ipm.Delta{d}))
		}
		ref, err := pipeline.Supplied(prof)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := pl.Assignment(t.Context(), ref, pipeline.Steady(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.want, err = pipeline.EncodeArtifact(pipeline.StageAssign, a); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	post := func(url string, body []byte) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, r := range runs {
			wg.Add(1)
			go func(r run, id string) {
				defer wg.Done()
				url := ts.URL + "/v1/stream/" + id
				for i, body := range r.bodies {
					if code := post(url+"-bad", body[:len(body)/2]); code != http.StatusBadRequest {
						t.Errorf("%s: half a delta: status %d", id, code)
					}
					if code := post(url, body); code != http.StatusOK {
						t.Errorf("%s: delta %d: status %d", id, i, code)
						return
					}
				}
				resp, err := http.Get(url + "?artifact=assignment")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(got, r.want) {
					t.Errorf("%s: assignment differs from batch (%d vs %d bytes, read error %v)", id, len(got), len(r.want), err)
				}
			}(r, fmt.Sprintf("pool-%s-%d", r.app, round))
		}
	}
	wg.Wait()
}

// streamed is what a client sees of one streamed session: the plans its
// POSTs answered and the two closing artifacts.
type streamed struct {
	plans           []StreamPlan
	assign, windows []byte
}

// streamBodies POSTs each body to a session in turn, with the query,
// then GETs both artifacts. It is safe to call from several goroutines.
func streamBodies(base, id, query string, bodies [][]byte) (streamed, error) {
	var got streamed
	for k, body := range bodies {
		resp, err := http.Post(base+"/v1/stream/"+id+query, "application/json", bytes.NewReader(body))
		if err != nil {
			return got, err
		}
		var out StreamResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return got, fmt.Errorf("%s body %d: status %d, %v", id, k, resp.StatusCode, err)
		}
		got.plans = append(got.plans, out.Plans...)
	}
	for _, a := range []struct {
		name string
		dst  *[]byte
	}{{"assignment", &got.assign}, {"windows", &got.windows}} {
		resp, err := http.Get(base + "/v1/stream/" + id + "?artifact=" + a.name)
		if err != nil {
			return got, err
		}
		*a.dst, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return got, fmt.Errorf("%s %s: status %d, %v", id, a.name, resp.StatusCode, err)
		}
	}
	return got, nil
}

// sameStream reports how two sessions' views of one stream differ.
func sameStream(got, want streamed) error {
	switch {
	case !reflect.DeepEqual(got.plans, want.plans):
		return fmt.Errorf("plans %+v, want %+v", got.plans, want.plans)
	case !bytes.Equal(got.assign, want.assign):
		return fmt.Errorf("assignment artifact differs (%d vs %d bytes)", len(got.assign), len(want.assign))
	case !bytes.Equal(got.windows, want.windows):
		return fmt.Errorf("windows artifact differs (%d vs %d bytes)", len(got.windows), len(want.windows))
	}
	return nil
}

// TestStreamReplayFoldsNothing pins the warm path end to end: a session
// replayed under a new id on a server that already folded it is served
// by key lookups alone — neither the fold stage nor a derived stream
// stage builds anything — and answers the same plans and artifact bytes.
// Another block size shares the chain's folds only. Two new sessions
// replaying one chain at once build each plan and artifact once.
func TestStreamReplayFoldsNothing(t *testing.T) {
	_, ds := splitRun(t, "amr", 32, 8)
	// One delta per POST, then the rest in one body: both shapes of
	// request chain under the same keys.
	bodies := [][]byte{encodeDeltas(t, ds[:1]), encodeDeltas(t, ds[1:2]), encodeDeltas(t, ds[2:])}
	stages := []string{pipeline.StageFold, stagePlan, stageAssignment}
	stats := func(s *Server) map[string]pipeline.StageStats { return s.Pipeline().Metrics().Snapshot() }

	s, ts := testServer(t, Config{Workers: 2})
	want, err := streamBodies(ts.URL, "first", "", bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.plans) < 2 {
		t.Fatalf("amr stream planned %d phases, want several", len(want.plans))
	}
	// Every delta and the empty state fold; every plan and the
	// assignment artifact build.
	builds := map[string]uint64{pipeline.StageFold: uint64(len(ds)) + 1, stagePlan: uint64(len(want.plans)), stageAssignment: 1}
	cold := stats(s)
	for _, stage := range stages {
		if st := cold[stage]; st.Misses != builds[stage] || st.Builds != builds[stage] || st.Errors != 0 {
			t.Fatalf("first pass, stage %s: %d misses, %d builds, %d errors, want %d, %d, 0", stage, st.Misses, st.Builds, st.Errors, builds[stage], builds[stage])
		}
	}

	got, err := streamBodies(ts.URL, "again", "", bodies)
	if err != nil {
		t.Fatal(err)
	}
	warm := stats(s)
	for _, stage := range stages {
		c, w := cold[stage], warm[stage]
		if w.Misses != c.Misses || w.Builds != c.Builds {
			t.Errorf("replay ran stage %s: misses %d -> %d, builds %d -> %d", stage, c.Misses, w.Misses, c.Builds, w.Builds)
		}
		if hits := w.Hits - c.Hits; hits != builds[stage] {
			t.Errorf("replay: %d %s hits, want %d", hits, stage, builds[stage])
		}
	}
	if err := sameStream(got, want); err != nil {
		t.Fatalf("replayed session: %v", err)
	}

	// The chain under another block size shares every fold, and plans
	// and provisions anew.
	wide, err := streamBodies(ts.URL, "wide", "?blocksize=32", bodies)
	if err != nil {
		t.Fatal(err)
	}
	grew := map[string]uint64{stagePlan: uint64(len(wide.plans)), stageAssignment: 1}
	for stage, st := range stats(s) {
		if st.Builds != warm[stage].Builds+grew[stage] {
			t.Errorf("block size 32, stage %s: %d builds, want %d", stage, st.Builds-warm[stage].Builds, grew[stage])
		}
	}
	if !bytes.Equal(wide.windows, want.windows) || bytes.Equal(wide.assign, want.assign) {
		t.Error("block size 32 should serve the windows of block size 16 and an assignment of its own")
	}

	t.Run("concurrent", func(t *testing.T) {
		s, ts := testServer(t, Config{Workers: 2})
		var wg sync.WaitGroup
		var got [2]streamed
		var errs [2]error
		for k := range got {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k], errs[k] = streamBodies(ts.URL, fmt.Sprintf("twin%d", k), "", bodies)
			}(k)
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			if err := sameStream(got[k], want); err != nil {
				t.Errorf("twin %d: %v", k, err)
			}
		}
		snap := stats(s)
		for _, stage := range stages {
			if st := snap[stage]; st.Builds != builds[stage] || st.Errors != 0 {
				t.Errorf("two concurrent sessions, stage %s: %d builds, %d errors, want %d and 0", stage, st.Builds, st.Errors, builds[stage])
			}
		}
	})
}

// TestStreamSessionLimit pins the admission discipline: with a one-slot
// table a second session is refused with 429 and Retry-After, and
// deleting the first frees the slot.
func TestStreamSessionLimit(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.streams.max = 1
	_, ds := splitRun(t, "cactus", 8, 2)

	if resp, _ := postDeltas(t, ts.URL+"/v1/stream/first", ds[:1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("first session: status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/stream/second", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session: status %d, want 429", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.RetryAfterSeconds <= 0 {
		t.Fatalf("429 body should carry retry_after_seconds: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/first", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if resp, _ := postDeltas(t, ts.URL+"/v1/stream/second", ds[:1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("after DELETE freed the slot: status %d", resp.StatusCode)
	}
}

// TestStreamTableEvictsIdleSessions drives the session table's clock by
// hand: a full table evicts a session idle past the TTL to admit a new
// one, and refuses the new one while every session was touched within it.
func TestStreamTableEvictsIdleSessions(t *testing.T) {
	tbl := streams{max: 2}
	t0 := time.Unix(1_000_000, 0)
	get := func(id string, at time.Duration) (*streamSession, bool) {
		return tbl.get(id, func() *streamSession { return &streamSession{id: id} }, t0.Add(at))
	}
	get("a", 0)
	get("b", 5*time.Minute)

	// a has idled 12 minutes, past the TTL; b only 7.
	if sess, created := get("c", 12*time.Minute); sess == nil || !created {
		t.Fatalf("full table with an idle session: got (%v, %v), want c admitted", sess, created)
	}
	if tbl.lookup("a") != nil || tbl.lookup("b") == nil || tbl.len() != 2 {
		t.Fatalf("after admitting c: a=%v b=%v len=%d, want a evicted and b kept", tbl.lookup("a"), tbl.lookup("b"), tbl.len())
	}

	// Touching b at 12 minutes keeps it at 20, when it would otherwise
	// have idled 15: neither b nor c is past the TTL, so d is refused.
	if sess, created := get("b", 12*time.Minute); sess == nil || created {
		t.Fatalf("touching b: got (%v, %v), want the existing session", sess, created)
	}
	if sess, _ := get("d", 20*time.Minute); sess != nil {
		t.Fatal("full table with every session inside the TTL admitted d")
	}
	if tbl.lookup("b") == nil || tbl.lookup("c") == nil || tbl.len() != 2 {
		t.Fatalf("after refusing d: b=%v c=%v len=%d, want both kept", tbl.lookup("b"), tbl.lookup("c"), tbl.len())
	}
}

// streamParityProcs mirrors the pipeline parity gating: HFAST_TEST_QUICK=1
// (the race CI lane) drops the expensive grid size.
func streamParityProcs() []int {
	if os.Getenv("HFAST_TEST_QUICK") != "" {
		return []int{64}
	}
	return []int{64, 256}
}

// TestStreamParity is the end-to-end acceptance check: for every paper
// skeleton, streaming the profile's deltas through the live endpoint,
// whose folds read the wire by the pair scan, yields the windows
// trace.Replay folds from the profile's decoded deltas and the
// assignment the batch pipeline builds, byte for byte.
func TestStreamParity(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	pl := pipeline.New(pipeline.Options{})

	for _, app := range apps.Names() {
		for _, procs := range streamParityProcs() {
			t.Run(fmt.Sprintf("%s/p%d", app, procs), func(t *testing.T) {
				prof, ds := splitRun(t, app, procs, 2)
				url := fmt.Sprintf("%s/v1/stream/%s-%d", ts.URL, app, procs)

				// Stream in two chunks to exercise multi-request folding.
				half := len(ds) / 2
				if resp, _ := postDeltas(t, url, ds[:half]); resp.StatusCode != http.StatusOK {
					t.Fatalf("chunk 1: status %d", resp.StatusCode)
				}
				if resp, _ := postDeltas(t, url+"?close=1", ds[half:]); resp.StatusCode != http.StatusOK {
					t.Fatalf("chunk 2: status %d", resp.StatusCode)
				}

				replayed, err := trace.Replay(prof, "step", 0)
				if err != nil {
					t.Fatal(err)
				}
				wantWs, err := json.Marshal(replayed.Windows)
				if err != nil {
					t.Fatal(err)
				}
				resp, gotWs := getBody(t, url+"?artifact=windows")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET windows artifact: status %d", resp.StatusCode)
				}
				if !bytes.Equal(wantWs, gotWs) {
					t.Fatalf("windows artifact differs from the replay's (%d vs %d bytes)", len(gotWs), len(wantWs))
				}

				ref, err := pipeline.Supplied(prof)
				if err != nil {
					t.Fatal(err)
				}
				batchA, _, err := pl.Assignment(t.Context(), ref, pipeline.Steady(), 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				wantA, err := pipeline.EncodeArtifact(pipeline.StageAssign, batchA)
				if err != nil {
					t.Fatal(err)
				}
				resp, gotA := getBody(t, url+"?artifact=assignment")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET assignment artifact: status %d", resp.StatusCode)
				}
				if !bytes.Equal(wantA, gotA) {
					t.Fatalf("assignment artifact differs from batch (%d vs %d bytes)", len(gotA), len(wantA))
				}
			})
		}
	}
}

// TestStreamStalledPostHoldsOnlyItsSession: a POST whose body stops
// mid-delta holds its own session and nothing else. While it waits for
// the rest, a new session opens and an existing one answers a GET.
func TestStreamStalledPostHoldsOnlyItsSession(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	_, ds := splitRun(t, "cactus", 8, 2)
	if resp, _ := postDeltas(t, ts.URL+"/v1/stream/c", ds[:1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("session c: status %d", resp.StatusCode)
	}
	// Session a gets one whole delta and half of the next, then nothing:
	// once the first is folded, its handler holds a's lock and waits.
	body := encodeDeltas(t, ds[:2])
	cut := len(encodeDeltas(t, ds[:1])) + 40
	pr, pw := io.Pipe()
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		if resp, err := http.Post(ts.URL+"/v1/stream/a", "application/json", pr); err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { pw.CloseWithError(io.ErrUnexpectedEOF); <-stalled }()
	if _, err := pw.Write(body[:cut]); err != nil {
		t.Fatal(err)
	}
	for s.Metrics().Snapshot().StreamDeltas < 2 {
		select {
		case <-stalled:
			t.Fatal("the stalled POST returned")
		case <-time.After(time.Millisecond):
		}
	}

	answered := make(chan string, 2)
	first := encodeDeltas(t, ds[:1])
	go func() {
		resp, err := http.Post(ts.URL+"/v1/stream/b", "application/json", bytes.NewReader(first))
		if err != nil {
			answered <- "POST b: " + err.Error()
			return
		}
		resp.Body.Close()
		answered <- fmt.Sprintf("POST b: %d", resp.StatusCode)
	}()
	go func() {
		resp, err := http.Get(ts.URL + "/v1/stream/c")
		if err != nil {
			answered <- "GET c: " + err.Error()
			return
		}
		resp.Body.Close()
		answered <- fmt.Sprintf("GET c: %d", resp.StatusCode)
	}()
	for i := 0; i < 2; i++ {
		select {
		case got := <-answered:
			if !strings.HasSuffix(got, ": 200") {
				t.Errorf("%s, want 200", got)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a stalled POST on session a held up other sessions for 10s")
		}
	}
}
