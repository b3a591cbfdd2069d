package mpi

// Call enumerates the profiled communication entry points. The names match
// the MPI functions the paper's Figure 2 reports so the profiling layer can
// reproduce its call-mix breakdown directly.
type Call int

// Profiled calls.
const (
	CallSend Call = iota
	CallRecv
	CallIsend
	CallIrecv
	CallSendrecv
	CallWait
	CallWaitall
	CallWaitany
	CallTest
	CallBarrier
	CallBcast
	CallReduce
	CallAllreduce
	CallGather
	CallAllgather
	CallScatter
	CallAlltoall
	CallAlltoallv
	CallScan
	CallReduceScatter
	CallProbe
	CallIprobe
	CallRegionBegin
	CallRegionEnd
	numCalls
)

var callNames = [...]string{
	CallSend:          "MPI_Send",
	CallRecv:          "MPI_Recv",
	CallIsend:         "MPI_Isend",
	CallIrecv:         "MPI_Irecv",
	CallSendrecv:      "MPI_Sendrecv",
	CallWait:          "MPI_Wait",
	CallWaitall:       "MPI_Waitall",
	CallWaitany:       "MPI_Waitany",
	CallTest:          "MPI_Test",
	CallBarrier:       "MPI_Barrier",
	CallBcast:         "MPI_Bcast",
	CallReduce:        "MPI_Reduce",
	CallAllreduce:     "MPI_Allreduce",
	CallGather:        "MPI_Gather",
	CallAllgather:     "MPI_Allgather",
	CallScatter:       "MPI_Scatter",
	CallAlltoall:      "MPI_Alltoall",
	CallAlltoallv:     "MPI_Alltoallv",
	CallScan:          "MPI_Scan",
	CallReduceScatter: "MPI_Reduce_scatter",
	CallProbe:         "MPI_Probe",
	CallIprobe:        "MPI_Iprobe",
	CallRegionBegin:   "region_begin",
	CallRegionEnd:     "region_end",
}

// String returns the MPI-style name of the call.
func (c Call) String() string {
	if c < 0 || int(c) >= len(callNames) {
		return "MPI_Unknown"
	}
	return callNames[c]
}

// NumCalls is the number of distinct Call values.
const NumCalls = int(numCalls)

// IsPointToPoint reports whether the call initiates point-to-point traffic
// that contributes to the communication topology.
func (c Call) IsPointToPoint() bool {
	switch c {
	case CallSend, CallIsend, CallSendrecv:
		return true
	}
	return false
}

// IsCollective reports whether the call is a collective operation.
func (c Call) IsCollective() bool {
	switch c {
	case CallBarrier, CallBcast, CallReduce, CallAllreduce, CallGather,
		CallAllgather, CallScatter, CallAlltoall, CallAlltoallv,
		CallScan, CallReduceScatter:
		return true
	}
	return false
}

// NoPeer marks events without a specific partner rank.
const NoPeer = -1

// Event describes one profiled communication call on one rank.
type Event struct {
	// Call is the entry point invoked.
	Call Call
	// Peer is the partner world rank for point-to-point sends/receives, the
	// root world rank for rooted collectives, or NoPeer.
	Peer int
	// Bytes is the per-rank payload size of the call (0 for waits/barrier).
	Bytes int
	// Region is the name of the enclosing profiling region, "" if none.
	// For CallRegionBegin/End it is the region being entered or left.
	Region string
	// T is the rank's virtual clock when the event was emitted (0 without
	// a cost model). Completion-style calls emit after the operation, so
	// T includes the operation's modeled duration.
	T float64
}

// Tracer observes communication events on a single rank. The runtime never
// shares one Tracer value across ranks, and a world runs one rank at a
// time: no two Event calls of one world's tracers overlap, each happens
// after the one before it, and state the tracers share needs no lock.
type Tracer interface {
	Event(Event)
}

// TracerFactory builds a rank's tracer when RunContext first resumes that
// rank, under the same one-at-a-time rule as Event.
type TracerFactory func(worldRank int) Tracer
