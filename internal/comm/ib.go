// InfiniBand/MPI backend: collectives and barriers forward to the MPI
// communicator; the one-sided fine-grained operations have no substrate in
// the two-sided MPI model and report ErrUnsupported.

package comm

import (
	"repro/internal/cluster"
	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func init() {
	Register(IB, func(n *cluster.Node) Backend {
		if n.MPI == nil {
			panic("comm: node has no MPI communicator (StackIB not enabled)")
		}
		return &ibBackend{c: n.MPI}
	})
}

// ibBackend drives one node's MPI communicator over the fat tree.
type ibBackend struct {
	c *mpi.Comm
}

func (b *ibBackend) Net() Net  { return IB }
func (b *ibBackend) Rank() int { return b.c.Rank() }
func (b *ibBackend) Size() int { return b.c.Size() }

func (b *ibBackend) Barrier() { b.c.Barrier() }

// ReliableBarrier degrades to MPI_Barrier: the MPI transport is modelled
// lossless end-to-end (link flaps stall, they do not drop).
func (b *ibBackend) ReliableBarrier() error {
	b.c.Barrier()
	return nil
}

func (b *ibBackend) Alltoall(blocks [][]byte) [][]byte { return b.c.Alltoall(blocks) }

func (b *ibBackend) Put(SendMode, int, uint32, int, []uint64) error { return ErrUnsupported }
func (b *ibBackend) Scatter(SendMode, []Word) error                 { return ErrUnsupported }
func (b *ibBackend) ReliableScatter([]Word) error                   { return ErrUnsupported }
func (b *ibBackend) Drain(sim.Time) (uint64, bool)                  { return 0, false }

func (b *ibBackend) Endpoint() *dv.Endpoint { return nil }
func (b *ibBackend) MPI() *mpi.Comm         { return b.c }
