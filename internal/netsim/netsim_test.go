package netsim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hfast-sim/hfast/internal/fattree"
	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/topology"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// lineNet builds a single shared link between node 0 and node 1.
func lineNet() (*Network, Router) {
	n := NewNetwork()
	l := n.AddLink(100) // 100 B/s
	r := RouterFunc(func(src, dst int) ([]int, float64, bool) {
		return []int{l}, 0.5, true
	})
	return n, r
}

func TestSimulateSingleFlow(t *testing.T) {
	n, r := lineNet()
	res, err := Simulate(n, r, []Flow{{Src: 0, Dst: 1, Bytes: 200}})
	if err != nil {
		t.Fatal(err)
	}
	// 200 B at 100 B/s + 0.5 s latency = 2.5 s.
	if !near(res.Flows[0].Finish, 2.5, 1e-9) {
		t.Errorf("finish %.3f, want 2.5", res.Flows[0].Finish)
	}
	if res.Makespan != res.Flows[0].Finish {
		t.Errorf("makespan mismatch")
	}
}

func TestSimulateFairSharing(t *testing.T) {
	n, r := lineNet()
	res, err := Simulate(n, r, []Flow{
		{Src: 0, Dst: 1, Bytes: 100},
		{Src: 0, Dst: 1, Bytes: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two equal flows share 100 B/s: both finish transfer at t=2.
	for i, f := range res.Flows {
		if !near(f.Finish, 2.5, 1e-9) {
			t.Errorf("flow %d finish %.3f, want 2.5", i, f.Finish)
		}
	}
}

func TestSimulateShortFlowReleasesBandwidth(t *testing.T) {
	n, r := lineNet()
	res, err := Simulate(n, r, []Flow{
		{Src: 0, Dst: 1, Bytes: 50},  // short
		{Src: 0, Dst: 1, Bytes: 150}, // long
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shared 50 B/s each until t=1 (short done, 50B left... long has
	// transferred 50, remaining 100 at 100 B/s → done t=2).
	if !near(res.Flows[0].Finish, 1.5, 1e-9) {
		t.Errorf("short finish %.3f, want 1.5", res.Flows[0].Finish)
	}
	if !near(res.Flows[1].Finish, 2.5, 1e-9) {
		t.Errorf("long finish %.3f, want 2.5", res.Flows[1].Finish)
	}
}

func TestSimulateStaggeredArrivals(t *testing.T) {
	n, r := lineNet()
	res, err := Simulate(n, r, []Flow{
		{Src: 0, Dst: 1, Bytes: 100, Start: 0},
		{Src: 0, Dst: 1, Bytes: 100, Start: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0 alone until t=1 (100 B done) → finishes at 1.5 with latency.
	if !near(res.Flows[0].Finish, 1.5, 1e-9) {
		t.Errorf("flow 0 finish %.3f, want 1.5", res.Flows[0].Finish)
	}
	if !near(res.Flows[1].Finish, 2.5, 1e-9) {
		t.Errorf("flow 1 finish %.3f, want 2.5", res.Flows[1].Finish)
	}
}

func TestSimulateZeroByteFlow(t *testing.T) {
	n, r := lineNet()
	res, err := Simulate(n, r, []Flow{{Src: 0, Dst: 1, Bytes: 0, Start: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Flows[0].Finish, 3.5, 1e-9) {
		t.Errorf("zero-byte finish %.3f, want 3.5 (latency only)", res.Flows[0].Finish)
	}
}

// TestSimulateDeterministicTieBreak covers the satellite fix for the
// map-order completion scan: two equal-size flows sharing one link at
// equal rates finish at exactly the same instant, and repeated runs must
// be byte-identical: the tie is broken by flow index, not map iteration
// order.
func TestSimulateDeterministicTieBreak(t *testing.T) {
	n, r := lineNet()
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 100},
		{Src: 0, Dst: 2, Bytes: 100},
	}
	type engine struct {
		name string
		run  func() (Result, error)
	}
	for _, e := range []engine{
		{"engine", func() (Result, error) { return Simulate(n, r, flows) }},
		{"reference", func() (Result, error) { return simulateReference(n, r, flows) }},
	} {
		first, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for run := 1; run < 8; run++ {
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s run %d: %v", e.name, run, err)
			}
			if res.Makespan != first.Makespan || res.MaxLinkBytes != first.MaxLinkBytes {
				t.Fatalf("%s run %d: aggregate drift: %+v vs %+v", e.name, run, res, first)
			}
			for i := range res.Flows {
				if res.Flows[i] != first.Flows[i] {
					t.Fatalf("%s run %d: flow %d %+v vs %+v",
						e.name, run, i, res.Flows[i], first.Flows[i])
				}
			}
		}
	}
}

// TestSimulateSimultaneousCompletions covers the retirement bookkeeping
// satellite: when several flows hit zero at the same event, every one of
// them must retire there (no lingering rate entries, no further drains)
// and the freed bandwidth must be visible to the survivor immediately.
func TestSimulateSimultaneousCompletions(t *testing.T) {
	n, r := lineNet()
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 100},
		{Src: 0, Dst: 2, Bytes: 100},
		{Src: 0, Dst: 3, Bytes: 300},
	}
	// Three-way share of 100 B/s: flows 0 and 1 finish their 100 B at
	// t=3 simultaneously; flow 2 then owns the link with 200 B left and
	// finishes at t=5. Latency 0.5 s on every path.
	for _, e := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"engine", func() (Result, error) { return Simulate(n, r, flows) }},
		{"reference", func() (Result, error) { return simulateReference(n, r, flows) }},
	} {
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want := []float64{3.5, 3.5, 5.5}
		for i, w := range want {
			if !near(res.Flows[i].Finish, w, 1e-9) {
				t.Errorf("%s: flow %d finish %.9f, want %.9f", e.name, i, res.Flows[i].Finish, w)
			}
		}
		if !near(res.Makespan, 5.5, 1e-9) {
			t.Errorf("%s: makespan %.9f, want 5.5", e.name, res.Makespan)
		}
	}
}

// TestSimulateCoalescedIdenticalFlows checks that identical flows are
// simulated one by one: each takes an equal share of the link, and they
// finish together, at the very same instant.
func TestSimulateCoalescedIdenticalFlows(t *testing.T) {
	n, r := lineNet()
	var flows []Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, Flow{Src: 0, Dst: 1, Bytes: 100})
	}
	res, err := Simulate(n, r, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flows != len(flows) {
		t.Errorf("simulated %d flows, want %d", res.Stats.Flows, len(flows))
	}
	// Four equal flows at 25 B/s each: transfer done at t=4, +0.5 latency.
	for i, f := range res.Flows {
		if !f.Routed || !near(f.Finish, 4.5, 1e-9) || f.Finish != res.Flows[0].Finish {
			t.Errorf("flow %d finish %.9f, want 4.5 like flow 0 (%.9f)", i, f.Finish, res.Flows[0].Finish)
		}
	}
	ref, err := simulateReference(n, r, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Flows {
		if !near(res.Flows[i].Finish, ref.Flows[i].Finish, 1e-9) {
			t.Errorf("flow %d: engine %.9f vs reference %.9f", i, res.Flows[i].Finish, ref.Flows[i].Finish)
		}
	}
}

func TestSimulateUnroutable(t *testing.T) {
	n := NewNetwork()
	n.AddLink(1)
	r := RouterFunc(func(src, dst int) ([]int, float64, bool) { return nil, 0, false })
	res, err := Simulate(n, r, []Flow{{Src: 0, Dst: 1, Bytes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unroutable != 1 || res.Flows[0].Routed {
		t.Errorf("unroutable accounting: %+v", res)
	}
}

// TestFabricsRefuseOutOfRangeEndpoints holds every fabric to FCNNet's
// answer for an endpoint outside [0, P): the flow is unroutable. The
// mesh used to index past its link tables, or with Dst = -1 walk its
// dimension-ordered route forever, and HFASTNet panicked in the
// assignment's range assertion.
func TestFabricsRefuseOutOfRangeEndpoints(t *testing.T) {
	const p = 64
	for name, router := range parityFabrics(t, ringGraph(p, 1<<10)) {
		for _, pair := range [][2]int{{p, 0}, {-1, 0}, {0, p}, {0, -1}} {
			res, err := Simulate(fabricNetwork(router), router, []Flow{{Src: pair[0], Dst: pair[1], Bytes: 10}})
			if err != nil || res.Unroutable != 1 {
				t.Errorf("%s %v: Unroutable %d, error %v; want 1, nil", name, pair, res.Unroutable, err)
			}
		}
	}
}

// TestSimulateRejectsBadFlows pins the input contract of both engines:
// a flow that cannot be represented — negative size, a start time or
// route latency that is negative, NaN or infinite — is refused with
// ErrInvalidFlow before any event runs. Each used to be answered
// wrongly (a negative finish with Unroutable: 0, a flow never admitted)
// or to spin the event loop to its cap.
func TestSimulateRejectsBadFlows(t *testing.T) {
	n := NewNetwork()
	a, b := n.AddLink(100), n.AddLink(100)
	good := RouterFunc(func(src, dst int) ([]int, float64, bool) { return []int{a, b}, 0.5, true })
	nanLatency := RouterFunc(func(src, dst int) ([]int, float64, bool) { return []int{a, b}, math.NaN(), true })
	ok := Flow{Src: 0, Dst: 1, Bytes: 10}
	for _, tc := range []struct {
		name   string
		router Router
		bad    Flow
		field  string
	}{
		{"negative size", good, Flow{Bytes: -1}, "Bytes"},
		{"negative start", good, Flow{Bytes: 10, Start: -1}, "Start"},
		{"infinite start", good, Flow{Bytes: 10, Start: math.Inf(1)}, "Start"},
		{"NaN start", good, Flow{Bytes: 10, Start: math.NaN()}, "Start"},
		{"NaN latency", nanLatency, ok, "latency"},
	} {
		flows := []Flow{ok, tc.bad}
		for engine, run := range map[string]func() (Result, error){
			"engine":    func() (Result, error) { return Simulate(n, tc.router, flows) },
			"reference": func() (Result, error) { return simulateReference(n, tc.router, flows) },
		} {
			res, err := run()
			if !errors.Is(err, ErrInvalidFlow) {
				t.Errorf("%s/%s: error %v, want ErrInvalidFlow", tc.name, engine, err)
				continue
			}
			if len(res.Flows) != 0 {
				t.Errorf("%s/%s: a result came back with the error", tc.name, engine)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s/%s: error %q does not name %s", tc.name, engine, err, tc.field)
			}
		}
	}

	unknown := RouterFunc(func(src, dst int) ([]int, float64, bool) { return []int{99}, 0, true })
	if _, err := Simulate(n, unknown, []Flow{{Bytes: 1}}); err == nil {
		t.Error("unknown link accepted")
	}

	for _, bw := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("AddLink accepted bandwidth %g", bw)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "link 1 ") {
					t.Errorf("AddLink(%g) panic %q does not name link 1", bw, msg)
				}
			}()
			bad := NewNetwork()
			bad.AddLink(1)
			bad.AddLink(bw)
		}()
	}
}

func ringGraph(n, size int) *topology.Graph {
	g := topology.MustGraph(n)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, 1, int64(size), size)
	}
	return g
}

func TestHFASTNetDedicatedCircuits(t *testing.T) {
	g := ringGraph(8, 1<<20)
	a, err := hfast.Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	hn := NewHFASTNet(a, DefaultLinkParams())
	// Ring neighbors route; distant pairs do not.
	if _, _, ok := hn.RouteAppend(nil, 0, 1); !ok {
		t.Fatal("partner pair unroutable")
	}
	if _, _, ok := hn.RouteAppend(nil, 0, 4); ok {
		t.Fatal("non-partner pair routable on high-bandwidth fabric")
	}
	// Disjoint ring exchanges never contend: each of the 8 simultaneous
	// 1 MB neighbor flows should finish in ~1 MB / 1 GB/s ≈ 1.05 ms
	// (uplinks are shared by only the two flows at each node... with the
	// ring pattern each uplink carries one outbound flow).
	var flows []Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, Flow{Src: i, Dst: (i + 1) % 8, Bytes: 1 << 20})
	}
	res, err := Simulate(hn.Network(), hn, flows)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(1<<20) / 1e9
	for i, f := range res.Flows {
		if !f.Routed || f.Finish > 1.2*want {
			t.Errorf("flow %d finish %.2e, want ≈ %.2e", i, f.Finish, want)
		}
	}
}

func TestFCNNetEndpointContention(t *testing.T) {
	tree, err := fattree.Design(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	fn := NewFCNNet(8, tree, DefaultLinkParams())
	// 4 flows into the same destination share its downlink.
	var flows []Flow
	for s := 1; s <= 4; s++ {
		flows = append(flows, Flow{Src: s, Dst: 0, Bytes: 1 << 20})
	}
	res, err := Simulate(fn.Network(), fn, flows)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * float64(1<<20) / 1e9
	for i, f := range res.Flows {
		if !near(f.Finish, want, 0.1*want) {
			t.Errorf("incast flow %d finish %.2e, want ≈ %.2e", i, f.Finish, want)
		}
	}
	if _, _, ok := fn.RouteAppend(nil, 3, 3); ok {
		t.Error("self route accepted")
	}
}

func TestMeshNetCongestion(t *testing.T) {
	m, err := meshtorus.New([]int{8}, false)
	if err != nil {
		t.Fatal(err)
	}
	mn := NewMeshNet(m, DefaultLinkParams())
	// End-to-end flow plus a middle flow share the central links.
	flows := []Flow{
		{Src: 0, Dst: 7, Bytes: 1 << 20},
		{Src: 3, Dst: 4, Bytes: 1 << 20},
	}
	res, err := Simulate(mn.Network(), mn, flows)
	if err != nil {
		t.Fatal(err)
	}
	solo := float64(1<<20) / 1e9
	// The long flow shares link 3-4: it must take noticeably longer than
	// an uncontended transfer.
	if res.Flows[0].Finish < 1.5*solo {
		t.Errorf("contended mesh flow finished too fast: %.2e vs solo %.2e", res.Flows[0].Finish, solo)
	}
}

func TestMeshVsHFASTOnNonIsomorphicPattern(t *testing.T) {
	// A shuffle pattern (i → i+P/2) dilates badly on a 1D mesh but gets
	// dedicated circuits on HFAST: HFAST's makespan must win.
	const p = 16
	g := topology.MustGraph(p)
	var flows []Flow
	for i := 0; i < p/2; i++ {
		j := i + p/2
		g.AddTraffic(i, j, 1, 1<<20, 1<<20)
		flows = append(flows, Flow{Src: i, Dst: j, Bytes: 1 << 20})
	}
	a, err := hfast.Assign(g, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	hn := NewHFASTNet(a, DefaultLinkParams())
	hres, err := Simulate(hn.Network(), hn, flows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meshtorus.New([]int{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	mn := NewMeshNet(m, DefaultLinkParams())
	mres, err := Simulate(mn.Network(), mn, flows)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Makespan >= mres.Makespan {
		t.Errorf("HFAST %.2e not faster than mesh %.2e on shuffle", hres.Makespan, mres.Makespan)
	}
}

func TestTreeNetRoutes(t *testing.T) {
	tn, err := NewTreeNet(13)
	if err != nil {
		t.Fatal(err)
	}
	// Siblings 1 and 2 route through the root: 2 links.
	path, _, ok := tn.RouteAppend(nil, 1, 2)
	if !ok || len(path) != 2 {
		t.Fatalf("sibling route: ok=%v len=%d", ok, len(path))
	}
	// Child to parent: 1 link.
	path, _, ok = tn.RouteAppend(nil, 4, 1)
	if !ok || len(path) != 1 {
		t.Fatalf("parent route: ok=%v len=%d", ok, len(path))
	}
	if _, _, ok := tn.RouteAppend(nil, 3, 3); ok {
		t.Error("self route accepted")
	}
	// Small flows complete over the shared tree.
	flows := []Flow{{Src: 1, Dst: 2, Bytes: 100}, {Src: 4, Dst: 5, Bytes: 100}}
	res, err := Simulate(tn.Network(), tn, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Flows {
		if !f.Routed || f.Finish <= 0 {
			t.Errorf("tree flow %d: %+v", i, f)
		}
	}
}

func TestTreeNetSharedRootContention(t *testing.T) {
	tn, err := NewTreeNet(9)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows crossing the root share the root-side links.
	solo, err := Simulate(tn.Network(), tn, []Flow{{Src: 4, Dst: 7, Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Simulate(tn.Network(), tn, []Flow{
		{Src: 4, Dst: 7, Bytes: 1 << 20},
		{Src: 5, Dst: 8, Bytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if both.Makespan <= solo.Makespan {
		t.Errorf("shared tree links did not contend: %g vs %g", both.Makespan, solo.Makespan)
	}
}
