// Package sched quantifies the job-scheduling argument the paper makes
// for HFAST (§1, §2.5): fixed-topology meshes need jobs packed into
// contiguous sub-meshes, so a batch queue fragments the machine and jobs
// wait even while enough free nodes exist; an HFAST (or FCN) machine can
// place a job on any free nodes because the topology is provisioned after
// placement. The package simulates a FCFS batch queue against both
// allocation disciplines and reports utilization and wait times.
package sched

import (
	"fmt"
	"sort"
)

// Job is one batch submission.
type Job struct {
	// ID identifies the job in results.
	ID int
	// Nodes is the number of nodes requested.
	Nodes int
	// Duration is the runtime once started, in arbitrary time units.
	Duration float64
	// Submit is the submission time.
	Submit float64
}

// Allocator is a node-allocation discipline.
type Allocator interface {
	// Alloc tries to place a job, returning an opaque handle.
	Alloc(nodes int) (handle int, ok bool)
	// Free releases a previous allocation.
	Free(handle int)
	// Capacity is the machine size in nodes.
	Capacity() int
	// FreeNodes is the current free-node count.
	FreeNodes() int
}

// FlexAllocator places jobs on any free nodes — the HFAST/FCN discipline.
type FlexAllocator struct {
	capacity int
	free     int
	nextID   int
	sizes    map[int]int
}

// NewFlexAllocator builds a flexible allocator over capacity nodes.
func NewFlexAllocator(capacity int) *FlexAllocator {
	return &FlexAllocator{capacity: capacity, free: capacity, sizes: make(map[int]int)}
}

// Alloc implements Allocator.
func (f *FlexAllocator) Alloc(nodes int) (int, bool) {
	if nodes > f.free {
		return 0, false
	}
	f.free -= nodes
	f.nextID++
	f.sizes[f.nextID] = nodes
	return f.nextID, true
}

// Free implements Allocator.
func (f *FlexAllocator) Free(handle int) {
	n, ok := f.sizes[handle]
	if !ok {
		// Asserts a programmer error: a handle freed twice or never
		// allocated. sched runs only under cmd/experiments, on no request,
		// upload or peer's bytes.
		panic(fmt.Sprintf("sched: double free of handle %d", handle))
	}
	delete(f.sizes, handle)
	f.free += n
}

// Capacity implements Allocator.
func (f *FlexAllocator) Capacity() int { return f.capacity }

// FreeNodes implements Allocator.
func (f *FlexAllocator) FreeNodes() int { return f.free }

// MeshAllocator places jobs as contiguous axis-aligned boxes in a 3D
// mesh — the constraint a fixed-topology interconnect imposes so a job's
// communication stays inside its partition.
type MeshAllocator struct {
	dims   [3]int
	used   []bool
	nextID int
	allocs map[int][]int
}

// NewMeshAllocator builds a mesh allocator over a nx×ny×nz machine.
func NewMeshAllocator(nx, ny, nz int) (*MeshAllocator, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("sched: bad mesh dims %d×%d×%d", nx, ny, nz)
	}
	return &MeshAllocator{
		dims:   [3]int{nx, ny, nz},
		used:   make([]bool, nx*ny*nz),
		allocs: make(map[int][]int),
	}, nil
}

// Capacity implements Allocator.
func (m *MeshAllocator) Capacity() int { return m.dims[0] * m.dims[1] * m.dims[2] }

func (m *MeshAllocator) index(x, y, z int) int {
	return x + m.dims[0]*(y+m.dims[1]*z)
}

// boxShapes enumerates the axis-aligned box shapes with exactly n nodes
// that fit the machine, preferring compact ones.
func (m *MeshAllocator) boxShapes(n int) [][3]int {
	var shapes [][3]int
	for a := 1; a <= n && a <= m.dims[0]; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := 1; b <= rest && b <= m.dims[1]; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if c <= m.dims[2] {
				shapes = append(shapes, [3]int{a, b, c})
			}
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		si := shapes[i][0] + shapes[i][1] + shapes[i][2]
		sj := shapes[j][0] + shapes[j][1] + shapes[j][2]
		if si != sj {
			return si < sj // most compact surface first
		}
		return shapes[i][0] < shapes[j][0]
	})
	return shapes
}

// Alloc implements Allocator: first-fit over box shapes and positions.
// Jobs whose size has no box factorization that fits the machine are
// rounded up to the next size that has one.
func (m *MeshAllocator) Alloc(nodes int) (int, bool) {
	n := nodes
	shapes := m.boxShapes(n)
	for len(shapes) == 0 && n <= m.Capacity() {
		// e.g. a 7-node job on an 8×8×4 machine pads to 8 nodes.
		n++
		shapes = m.boxShapes(n)
	}
	for _, sh := range shapes {
		for z := 0; z+sh[2] <= m.dims[2]; z++ {
			for y := 0; y+sh[1] <= m.dims[1]; y++ {
			scan:
				for x := 0; x+sh[0] <= m.dims[0]; x++ {
					cells := make([]int, 0, n)
					for dz := 0; dz < sh[2]; dz++ {
						for dy := 0; dy < sh[1]; dy++ {
							for dx := 0; dx < sh[0]; dx++ {
								idx := m.index(x+dx, y+dy, z+dz)
								if m.used[idx] {
									continue scan
								}
								cells = append(cells, idx)
							}
						}
					}
					for _, idx := range cells {
						m.used[idx] = true
					}
					m.nextID++
					m.allocs[m.nextID] = cells
					return m.nextID, true
				}
			}
		}
	}
	return 0, false
}

// Free implements Allocator.
func (m *MeshAllocator) Free(handle int) {
	cells, ok := m.allocs[handle]
	if !ok {
		// Asserts a programmer error, as in FlexAllocator.Free.
		panic(fmt.Sprintf("sched: double free of handle %d", handle))
	}
	delete(m.allocs, handle)
	for _, idx := range cells {
		m.used[idx] = false
	}
}

// FreeNodes implements Allocator.
func (m *MeshAllocator) FreeNodes() int {
	n := 0
	for _, u := range m.used {
		if !u {
			n++
		}
	}
	return n
}

// Result summarizes one batch simulation.
type Result struct {
	// Jobs is the number of jobs completed.
	Jobs int
	// Makespan is the time the last job finished.
	Makespan float64
	// AvgWait and MaxWait are queueing delays (start − submit).
	AvgWait float64
	MaxWait float64
	// Utilization is busy node-time over capacity×makespan.
	Utilization float64
	// BlockedWithFreeNodes counts scheduling attempts where the head job
	// could not start even though enough nodes were free — pure
	// fragmentation loss, impossible on the flexible allocator.
	BlockedWithFreeNodes int
}

type runningJob struct {
	finish float64
	handle int
	nodes  int
}

// Simulate runs a FCFS batch queue over the job list (sorted by submit
// time) on the given allocator.
func Simulate(jobs []Job, alloc Allocator) (Result, error) {
	for _, j := range jobs {
		if j.Nodes <= 0 || j.Nodes > alloc.Capacity() {
			return Result{}, fmt.Errorf("sched: job %d requests %d of %d nodes", j.ID, j.Nodes, alloc.Capacity())
		}
		if j.Duration <= 0 {
			return Result{}, fmt.Errorf("sched: job %d has non-positive duration", j.ID)
		}
	}
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Submit < queue[j].Submit })

	var (
		res      Result
		running  []runningJob
		now      float64
		busyTime float64
		waitSum  float64
		qi       int
		pending  []Job
	)

	finishEarliest := func() int {
		best := -1
		for i := range running {
			if best == -1 || running[i].finish < running[best].finish {
				best = i
			}
		}
		return best
	}

	for qi < len(queue) || len(pending) > 0 || len(running) > 0 {
		// Admit arrivals up to now.
		for qi < len(queue) && queue[qi].Submit <= now {
			pending = append(pending, queue[qi])
			qi++
		}
		// FCFS: start head jobs while they fit.
		for len(pending) > 0 {
			j := pending[0]
			h, ok := alloc.Alloc(j.Nodes)
			if !ok {
				if alloc.FreeNodes() >= j.Nodes {
					res.BlockedWithFreeNodes++
				}
				break
			}
			pending = pending[1:]
			wait := now - j.Submit
			waitSum += wait
			if wait > res.MaxWait {
				res.MaxWait = wait
			}
			busyTime += float64(j.Nodes) * j.Duration
			running = append(running, runningJob{finish: now + j.Duration, handle: h, nodes: j.Nodes})
			res.Jobs++
		}
		// Advance time to the next event.
		next := -1.0
		if i := finishEarliest(); i >= 0 {
			next = running[i].finish
		}
		if qi < len(queue) && (next < 0 || queue[qi].Submit < next) {
			next = queue[qi].Submit
		}
		if next < 0 {
			break
		}
		now = next
		// Retire finished jobs.
		for {
			i := finishEarliest()
			if i < 0 || running[i].finish > now {
				break
			}
			alloc.Free(running[i].handle)
			running = append(running[:i], running[i+1:]...)
		}
	}
	res.Makespan = now
	if res.Jobs > 0 {
		res.AvgWait = waitSum / float64(res.Jobs)
	}
	if res.Makespan > 0 {
		res.Utilization = busyTime / (float64(alloc.Capacity()) * res.Makespan)
	}
	return res, nil
}

// SyntheticJobs builds a deterministic job stream: a mix of small, medium
// and large jobs with staggered submissions, sized against a machine of
// the given capacity.
func SyntheticJobs(count, capacity int, seed uint64) []Job {
	mix := []struct {
		frac float64 // of capacity
		dur  float64
	}{
		{0.05, 3}, {0.1, 5}, {0.25, 8}, {0.5, 6}, {0.08, 2}, {0.33, 4},
	}
	jobs := make([]Job, count)
	state := seed | 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := range jobs {
		m := mix[int(next())%len(mix)]
		nodes := int(m.frac * float64(capacity))
		if nodes < 1 {
			nodes = 1
		}
		// ±25% size jitter so boxes do not tile perfectly.
		nodes += int(next()%uint64(nodes/2+1)) - nodes/4
		if nodes < 1 {
			nodes = 1
		}
		if nodes > capacity {
			nodes = capacity
		}
		jobs[i] = Job{
			ID:       i,
			Nodes:    nodes,
			Duration: m.dur * (0.75 + float64(next()%100)/200),
			Submit:   float64(i) * 1.5,
		}
	}
	return jobs
}
