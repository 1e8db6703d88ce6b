// The Backend interface and its registry. cluster.Run instantiates the
// fabrics; comm.New wraps one node's endpoints in the Backend registered
// for the requested Net. Registration happens in this package's init
// functions (dv.go, ib.go); an out-of-tree fabric would add one more
// Register call.

package comm

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ErrUnsupported reports a transport operation the backend's fabric cannot
// express (e.g. one-sided fine-grained puts on the two-sided MPI stack).
var ErrUnsupported = errors.New("comm: operation not supported by this backend")

// Backend is one node's view of a network under test: the transport
// operations shared by every workload, plus escape hatches to the
// fabric-specific programming models for kernels that exploit them (the
// paper's restructured Data Vortex variants do, by design).
//
// Universal operations — Barrier, ReliableBarrier, Alltoall — work on every
// backend. One-sided word traffic (Put, Scatter, ReliableScatter, Drain)
// is native on Data Vortex and returns ErrUnsupported on InfiniBand, whose
// two-sided MPI model has no remote-memory substrate to land it in.
type Backend interface {
	// Net identifies the fabric.
	Net() Net
	// Rank is this node's id in the job.
	Rank() int
	// Size is the number of nodes in the job.
	Size() int

	// Barrier blocks until every node has entered it.
	Barrier()
	// ReliableBarrier is Barrier over the loss-tolerant delivery layer; on
	// fabrics without a reliable layer it degrades to the plain barrier.
	ReliableBarrier() error
	// Alltoall exchanges one byte block with every node (blocks[i] goes to
	// node i; the result holds one block from every node, own block
	// included). Native on MPI; emulated on Data Vortex with counted
	// one-sided writes into a symmetric exchange region.
	Alltoall(blocks [][]byte) [][]byte

	// Put writes vals into dst's DV Memory at addr, decrementing group
	// counter gc there per word (NoGC: none).
	Put(mode SendMode, dst int, addr uint32, gc int, vals []uint64) error
	// Scatter issues a batch of fine-grained transactions in one transfer —
	// the source-side aggregation the paper's restructured apps rely on.
	Scatter(mode SendMode, words []Word) error
	// ReliableScatter is Scatter through the retransmitting delivery layer.
	ReliableScatter(words []Word) error
	// Drain pops one word from the node's unscheduled-arrival (surprise
	// FIFO) queue, blocking up to timeout.
	Drain(timeout sim.Time) (uint64, bool)

	// Endpoint exposes the Data Vortex API endpoint (rail 0), or nil when
	// the backend is not Data Vortex.
	Endpoint() *dv.Endpoint
	// MPI exposes the MPI communicator, or nil when the backend is not
	// InfiniBand.
	MPI() *mpi.Comm
}

// Factory builds one node's Backend from its cluster endpoints.
type Factory func(n *cluster.Node) Backend

var factories = map[Net]Factory{}

// Register installs the Backend factory for a network. Later registrations
// for the same Net replace earlier ones (tests substitute instrumented
// backends this way).
func Register(net Net, f Factory) { factories[net] = f }

// New wraps node n's endpoints in the Backend registered for net. It
// panics when no backend is registered or the node lacks the fabric —
// both are harness wiring bugs, not runtime conditions.
func New(net Net, n *cluster.Node) Backend {
	f, ok := factories[net]
	if !ok {
		panic(fmt.Sprintf("comm: no backend registered for %v", net))
	}
	return f(n)
}
