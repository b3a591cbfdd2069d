package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
)

// FuzzProvisionUpload POSTs any value as the "profile" of a provisioning
// request to a server with MaxProcs 64. The server never panics and never
// answers 5xx, and it answers 200 only with a plan of 1 to 64 ranks: an
// upload is held to the bound a spec is, before any stage sizes itself by
// the profile's Procs.
func FuzzProvisionUpload(f *testing.F) {
	const maxProcs = 64
	for _, procs := range []int{8, 16} {
		prof, err := apps.ProfileRun("cactus", apps.Config{Procs: procs, Steps: 1})
		if err != nil {
			f.Fatal(err)
		}
		var canon bytes.Buffer
		if err := prof.WriteJSON(&canon); err != nil {
			f.Fatal(err)
		}
		f.Add(canon.Bytes())
		// The same profile claiming more ranks than the server allows.
		f.Add(bytes.Replace(canon.Bytes(), []byte(`"Procs":`), []byte(`"Procs":1`), 1))
	}
	f.Add([]byte(`{"Version":2,"App":"a","Procs":65,"Ranks":[]}`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":4294967296,"Ranks":[]}`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":0,"Ranks":[]}`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":-1,"Ranks":[]}`))
	f.Add([]byte(`{"Version":2,"App":"a","Procs":2,"Ranks":[{"Rank":0,"Entries":[{"Key":{"Call":2,"Bytes":8,"Peer":9,"Region":"step000"},"Stat":{"Count":1,"TotalBytes":8}}]}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1]`))

	s, err := New(Config{Workers: 2, MaxProcs: maxProcs})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, profile []byte) {
		body := append(append([]byte(`{"profile":`), profile...), '}')
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/provision", bytes.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var out ProvisionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("decoding the 200 answer: %v", err)
		}
		if out.Procs <= 0 || out.Procs > maxProcs {
			t.Fatalf("answered 200 with a plan of %d ranks, want (0,%d]", out.Procs, maxProcs)
		}
	})
}
