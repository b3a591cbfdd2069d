package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/ipm"
)

// FuzzStreamPost POSTs any body to a new stream session, then GETs both
// artifacts. The server never panics and never answers 5xx. A body that
// folds is POSTed again to a second session, which answers the same plans
// and the same artifact bytes: what the derived stages serve from cache
// is what the miss that filled them built. Both sessions are DELETEd, so
// the table never fills.
func FuzzStreamPost(f *testing.F) {
	for _, run := range []struct {
		app          string
		procs, steps int
	}{{"amr", 16, 6}, {"cactus", 8, 2}} {
		prof, err := apps.ProfileRun(run.app, apps.Config{Procs: run.procs, Steps: run.steps})
		if err != nil {
			f.Fatal(err)
		}
		ds, err := ipm.SplitDeltas(prof)
		if err != nil {
			f.Fatal(err)
		}
		// The canonical body, its first half, and each delta indented:
		// the candidate framing, a cut mid-delta, and the brace matcher.
		var body, indented, canon bytes.Buffer
		for _, d := range ds {
			canon.Reset()
			if err := d.WriteJSON(&canon); err != nil {
				f.Fatal(err)
			}
			body.Write(canon.Bytes())
			if err := json.Indent(&indented, canon.Bytes(), "", " "); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(body.Bytes())
		f.Add(body.Bytes()[:body.Len()/2])
		f.Add(indented.Bytes())
	}
	f.Add([]byte(`{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":4,"Seq":0,"Window":"step000"}{not json`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":4,"Procs":8,"Seq":0,"Window":"step000"}`))
	f.Add([]byte(`[1]`))
	f.Add([]byte{})

	s, err := New(Config{Workers: 2, MaxProcs: 64})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	n := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		do := func(method, url string, body []byte) *httptest.ResponseRecorder {
			t.Helper()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, url, bytes.NewReader(body)))
			if w.Code >= 500 {
				t.Fatalf("%s %s: status %d: %s", method, url, w.Code, w.Body)
			}
			return w
		}
		// session streams body to a new session and returns the POST's
		// answer and each artifact GET's, then deletes the session.
		session := func() (post *httptest.ResponseRecorder, arts [2]*httptest.ResponseRecorder) {
			n++
			url := fmt.Sprintf("/v1/stream/fuzz%d", n)
			post = do(http.MethodPost, url, body)
			for i, a := range []string{"assignment", "windows"} {
				arts[i] = do(http.MethodGet, url+"?artifact="+a, nil)
			}
			do(http.MethodDelete, url, nil)
			return post, arts
		}
		post, arts := session()
		var first StreamResponse
		if post.Code == http.StatusOK {
			if err := json.Unmarshal(post.Body.Bytes(), &first); err != nil {
				t.Fatalf("decoding the POST's answer: %v", err)
			}
		}
		if first.DeltasFolded > 0 {
			again, againArts := session()
			var second StreamResponse
			if again.Code != http.StatusOK || json.Unmarshal(again.Body.Bytes(), &second) != nil {
				t.Fatalf("the same body again: status %d: %s", again.Code, again.Body)
			}
			if !reflect.DeepEqual(first.Plans, second.Plans) {
				t.Fatalf("the same body again planned %+v, first %+v", second.Plans, first.Plans)
			}
			for i := range arts {
				if arts[i].Code != againArts[i].Code || !bytes.Equal(arts[i].Body.Bytes(), againArts[i].Body.Bytes()) {
					t.Fatalf("artifact %d again: status %d (%d bytes), first %d (%d bytes)", i,
						againArts[i].Code, againArts[i].Body.Len(), arts[i].Code, arts[i].Body.Len())
				}
			}
		}
		if live := s.streams.len(); live != 0 {
			t.Fatalf("%d sessions left after DELETE", live)
		}
	})
}
