// The Backend interface. cluster.Run instantiates the fabrics; comm.New
// wraps one node's endpoints in the Backend for the requested Net.

package comm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dv"
	"repro/internal/mpi"
)

// Backend is one node's view of a network under test: what every workload
// shares whichever fabric it runs on — identity, barriers and the all-to-all
// — plus the fabric's own programming model. Data movement goes through
// Endpoint or MPI: the paper's kernels are restructured per fabric by
// design, so the fabric-specific endpoints are the API for it, not an
// escape from one.
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

	// Endpoint is the Data Vortex API endpoint (rail 0), or nil when the
	// backend is not Data Vortex.
	Endpoint() *dv.Endpoint
	// MPI is the MPI communicator, or nil when the backend is not
	// InfiniBand.
	MPI() *mpi.Comm
}

// New wraps node n's endpoints in the Backend for net. It panics when net is
// not a Net or the node lacks its stack — harness wiring bugs, not runtime
// conditions.
func New(net Net, n *cluster.Node) Backend {
	switch {
	case net == DV && n.DV != nil:
		return &dvBackend{e: n.DV}
	case net == IB && n.MPI != nil:
		return &ibBackend{c: n.MPI}
	}
	panic(fmt.Sprintf("comm: no backend for Net(%d) on this node (unknown network, or its stack is not enabled)", net))
}
