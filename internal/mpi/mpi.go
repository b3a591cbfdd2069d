// Package mpi implements an in-process message-passing runtime modeled on
// the MPI-1 communication interface. Ranks execute as coroutines inside a
// World and exchange messages through communicators with tag and source
// matching, nonblocking requests, and the collective operations used by the
// application skeletons in internal/apps.
//
// The surface is what those skeletons call, and no more: Send, Recv,
// Sendrecv, Isend and Irecv with Wait, Waitall and Waitany; Barrier,
// Bcast, Allreduce and Gather; Split. A call none of them makes (Test,
// Probe, Scan, Alltoall, Comm_dup, Cart_create, …) comes back with its
// first caller; a Cartesian grid is a meshtorus.Mesh. The Call enum still
// names every MPI function an IPM profile may record, since uploaded
// profiles use that vocabulary.
//
// The runtime exists so that the IPM-style profiling layer (internal/ipm)
// can observe the exact sequence of communication calls an application
// makes — call types, buffer sizes, and partner ranks — which is the data
// the HFAST paper derives every figure and table from. No message carries
// a payload: a Buf is its logical byte count, so large transfer patterns
// replay without materializing gigabytes of data, Allreduce and Gather
// return nothing, and neither does a receive: Recv, Sendrecv, Wait and
// Waitall return nothing and Waitany only the index it retired, since no
// skeleton reads a message's source, tag or size back.
//
// One scheduler per World (RunContext) resumes one rank at a time, always
// the runnable rank with the lowest (virtual clock, world rank), and a rank
// runs until it blocks. So a world is single-threaded — no lock, pool or
// channel guards its state — and everything a run produces, modeled times
// included, is a function of the program alone: the same bytes on every run,
// at any GOMAXPROCS. Parallelism lives between worlds, not inside one.
//
// Semantics follow MPI where it matters for profiling fidelity:
//
//   - Point-to-point matching is by (source, tag) with AnySource/AnyTag
//     wildcards and non-overtaking order per (source, tag) pair. A wildcard
//     receive that finds several sources waiting takes the earliest modeled
//     arrival.
//   - Sends use eager delivery: a send completes locally as soon as the
//     envelope is enqueued at the destination, like a buffered MPI send
//     (above WithEagerLimit, when the matching receive is posted).
//   - Completion consumes a request, as MPI_Wait frees one: Wait, Waitall
//     and the request Waitany returns hand the handle back to the rank,
//     and a later Isend/Irecv reissues it. Touching a handle after that
//     panics ("mpi: request used after Wait") until it is reissued.
//     So a steady-state exchange loop allocates nothing, under Wait or
//     Waitall.
//   - Collectives must be called by every rank of a communicator in the
//     same order. They send no messages, so they never match user traffic:
//     the ranks of one call meet in memory, and ranks that enter different
//     collectives at one place in that order panic.
//   - A world in which no rank can run again returns ErrDeadlock at once,
//     naming what each rank waits on.
//   - The context passed to RunContext is a world's one way to stop: when
//     it is done the ranks unwind and Run returns ctx.Err() (WithTimeout
//     is a deadline on that context).
//
// Usage errors (invalid rank, mismatched collective participation, a request
// used after Wait) panic, mirroring an MPI abort. Every panic in this package
// asserts a programmer error, says which at its site, and — NewWorld's size
// check apart — runs on a rank's coroutine, where Run recovers it into an
// error naming the rank and unwinds the others: none is a process death.
package mpi

import "fmt"

// Tag identifies a point-to-point message class within a communicator.
type Tag int

// Wildcards accepted by receive operations.
const (
	// AnyTag matches a message with any tag.
	AnyTag Tag = -1
	// AnySource matches a message from any source rank.
	AnySource = -1
)

// ProcNull is the null process: sends to it vanish and receives from it
// return at once having matched nothing, following MPI_PROC_NULL. It
// lets a shift off a grid's open edge (meshtorus.Mesh.Offset's -1) feed
// straight into Sendrecv without special-casing.
const ProcNull = -3

// Buf describes a message buffer: N is its logical size in bytes.
type Buf struct {
	N int
}

// Size returns a buffer of n logical bytes.
func Size(n int) Buf {
	if n < 0 {
		// Asserts a programmer error: a negative byte count.
		panic(fmt.Sprintf("mpi: negative buffer size %d", n))
	}
	return Buf{N: n}
}
