package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hfast-sim/hfast/internal/apps"
)

// warmProvisionAllocBudget bounds the allocations of one warm
// /v1/provision through Handler(), recorder and request included. Measured
// 68–75 for every app and both formats; while the handler analysed the
// cached plan on every request, pmemd and paratec (TDC = P−1) read 4 080–
// 4 109 against 70 for the rest.
const (
	warmProvisionAllocBudget = 100
	warmProvisionAllocSpread = 10
)

// TestWarmProvisionAllocBudget gates the warm path without a clock: a
// provision answered from the plan cache decodes the request, derives two
// keys, hits the LRU and encodes — none of which looks at the plan's
// partner lists, so what it allocates does not grow with the plan's degree.
func TestWarmProvisionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, _ := testServer(t, Config{Workers: 2})
	h := s.Handler() // called directly: no client or connection in the count
	for _, format := range []string{"", "?format=text"} {
		lo, hi := 1<<30, 0
		for _, app := range apps.Names() {
			body := []byte(fmt.Sprintf(`{"app":%q,"procs":64,"steps":1}`, app))
			do := func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/provision"+format, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("%s%s: status %d: %s", app, format, w.Code, w.Body)
				}
			}
			do() // builds the plan, or finds the one the other format built
			n := int(testing.AllocsPerRun(50, do))
			t.Logf("%-8s %-12s %d allocations per warm request", app, format, n)
			if n > warmProvisionAllocBudget {
				t.Errorf("%s%s: %d allocations per warm request, over the budget of %d", app, format, n, warmProvisionAllocBudget)
			}
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > warmProvisionAllocSpread {
			t.Errorf("format %q: warm allocations range over %d–%d across apps; a cached answer must not scale with the plan's degree", format, lo, hi)
		}
	}
}
