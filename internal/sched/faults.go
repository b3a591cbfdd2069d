package sched

import (
	"fmt"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/meshtorus"
	"github.com/hfast-sim/hfast/internal/topology"
)

// FaultReport compares how an application's communication fares after
// node failures on a fixed mesh versus an HFAST fabric (§1: "individual
// link or node failures in a lower-degree interconnection network are far
// more disruptive").
type FaultReport struct {
	// Failed is the number of failed nodes.
	Failed int
	// SurvivingEdges is the number of application edges between healthy
	// ranks.
	SurvivingEdges int
	// MeshDisconnected counts surviving edges with no route around the
	// failures on the mesh.
	MeshDisconnected int
	// MeshMaxDetour and MeshAvgDetour describe surviving mesh routes:
	// path length over the original distance (1.0 = no detour).
	MeshMaxDetour float64
	MeshAvgDetour float64
	// HFASTMaxRoute is the worst provisioned route after re-provisioning
	// without the failed nodes (block hops; unchanged from fault-free
	// provisioning because failed nodes simply leave the pool).
	HFASTMaxRoute hfast.Route
	// HFASTBlocksFreed is how many switch blocks the failures return to
	// the pool.
	HFASTBlocksFreed int
}

// FaultImpact evaluates failures of the given nodes for an application
// graph mapped onto a torus of the same size versus an HFAST assignment.
func FaultImpact(g *topology.Graph, m meshtorus.Mesh, failed []int, blockSize int) (FaultReport, error) {
	if m.Size() != g.P {
		return FaultReport{}, fmt.Errorf("sched: mesh size %d != graph size %d", m.Size(), g.P)
	}
	dead := make(map[int]bool, len(failed))
	for _, f := range failed {
		if f < 0 || f >= g.P {
			return FaultReport{}, fmt.Errorf("sched: failed node %d out of range", f)
		}
		dead[f] = true
	}
	rep := FaultReport{Failed: len(dead)}

	// Mesh: recompute shortest paths avoiding dead routers.
	var detourSum float64
	for _, e := range g.Edges(topology.DefaultCutoff) {
		if dead[e[0]] || dead[e[1]] {
			continue
		}
		rep.SurvivingEdges++
		base := m.Distance(e[0], e[1])
		d := bfsAvoiding(m, e[0], e[1], dead)
		if d < 0 {
			rep.MeshDisconnected++
			continue
		}
		detour := float64(d) / float64(max(base, 1))
		detourSum += detour
		if detour > rep.MeshMaxDetour {
			rep.MeshMaxDetour = detour
		}
	}
	routed := rep.SurvivingEdges - rep.MeshDisconnected
	if routed > 0 {
		rep.MeshAvgDetour = detourSum / float64(routed)
	}

	// HFAST: drop the failed nodes' traffic and re-provision; routes for
	// survivors keep their block-tree depths.
	healthy := topology.MustGraph(g.P) // g.P is a valid size by construction
	g.ForEachEdge(func(i, j int, e topology.Edge) {
		if dead[i] || dead[j] || e.Msgs == 0 {
			return
		}
		healthy.AddTraffic(i, j, e.Msgs, e.Vol, e.MaxMsg)
	})
	before, err := hfast.Assign(g, 0, blockSize)
	if err != nil {
		return FaultReport{}, err
	}
	after, err := hfast.Assign(healthy, 0, blockSize)
	if err != nil {
		return FaultReport{}, err
	}
	rep.HFASTMaxRoute = after.MaxRoute()
	for _, f := range failed {
		rep.HFASTBlocksFreed += before.Blocks[f]
	}
	return rep, nil
}

// bfsAvoiding returns the shortest hop count from a to b over healthy
// mesh routers, -1 when disconnected. Endpoints are assumed healthy.
func bfsAvoiding(m meshtorus.Mesh, a, b int, dead map[int]bool) int {
	if a == b {
		return 0
	}
	dist := map[int]int{a: 0}
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range m.Neighbors(cur) {
			if dead[nb] {
				continue
			}
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[cur] + 1
			if nb == b {
				return dist[nb]
			}
			queue = append(queue, nb)
		}
	}
	return -1
}
