// InfiniBand/MPI backend: identity, barriers and the all-to-all forward to
// the MPI communicator.

package comm

import (
	"repro/internal/dv"
	"repro/internal/mpi"
)

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

func (b *ibBackend) Endpoint() *dv.Endpoint { return nil }
func (b *ibBackend) MPI() *mpi.Comm         { return b.c }
