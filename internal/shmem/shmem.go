// Package shmem is a small PGAS (OpenSHMEM-flavoured) runtime over the Data
// Vortex API: symmetric allocation, one-sided put/get, a global fence, and
// tiny collectives. The paper's related work (§VIII) surveys exactly this
// kind of software layer for irregular applications (GMT, Grappa, Active
// Pebbles); this package shows what such a layer costs and looks like on the
// Data Vortex primitives.
//
// Design notes, forced by the hardware model:
//
//   - The fabric does not preserve ordering, so a source cannot infer remote
//     completion from any reply. The fence therefore uses monotone delivery
//     counting: every put word decrements the target's dedicated counter
//     (value = −words arrived, ever), and Fence all-gathers the cumulative
//     send matrix so each node can wait for exactly the words addressed to
//     it. Fence is collective, like shmem_barrier_all.
//   - Get is built from the VIC's query packets (§III): the target VIC
//     assembles replies without host involvement.
package shmem

import (
	"fmt"
	"math"

	"repro/internal/dv"
	"repro/internal/sim"
	"repro/internal/vic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(w uint64) float64 { return math.Float64frombits(w) }

// Sym is a symmetric-heap object: the same DV Memory address on every node.
type Sym struct {
	addr  uint32
	words int
}

// Ctx is one node's PGAS context. Construction must be symmetric (same
// sequence on every node), and the context claims the endpoint's allocators.
type Ctx struct {
	e *dv.Endpoint

	incomingGC int // counts −(put words ever arrived)
	coll       *dv.Collective
	sentTo     []int64 // cumulative put words per destination

	getGC  int
	getBuf uint32 // bounce buffer for replies
	getCap int
}

// New builds the context. Collective: every node must call it before any
// communication, followed by no explicit barrier (New fences internally).
func New(e *dv.Endpoint) *Ctx {
	c := &Ctx{
		e:          e,
		incomingGC: e.AllocGC(),
		getGC:      e.AllocGC(),
		getCap:     4096,
		sentTo:     make([]int64, e.Size()),
	}
	c.getBuf = e.Alloc(c.getCap)
	c.coll = dv.NewCollective(e, e.Size())
	e.ArmGC(c.incomingGC, 0) // value is interpreted, never waited-to-zero
	e.Barrier()
	return c
}

// Rank returns this node's id.
func (c *Ctx) Rank() int { return c.e.Rank() }

// Size returns the number of nodes.
func (c *Ctx) Size() int { return c.e.Size() }

// Malloc allocates words of symmetric memory (collective-symmetric).
func (c *Ctx) Malloc(words int) Sym {
	return Sym{addr: c.e.Alloc(words), words: words}
}

// Put writes vals into dst's copy of s at offset off. The call returns when
// the source buffer is reusable; remote completion requires Fence.
func (c *Ctx) Put(dst int, s Sym, off int, vals []uint64) {
	if off < 0 || off+len(vals) > s.words {
		panic(fmt.Sprintf("shmem: Put [%d,%d) outside object of %d words", off, off+len(vals), s.words))
	}
	w := vic.Word{Dst: dst, Op: vic.OpWrite, GC: c.incomingGC}
	c.e.ScatterN(vic.DMACached, len(vals), func(i int) *vic.Word {
		w.Addr, w.Val = s.addr+uint32(off+i), vals[i]
		return &w
	})
	c.sentTo[dst] += int64(len(vals))
}

// Get reads n words of dst's copy of s starting at off (blocking). Built
// from query packets: the remote VIC sends the values back without host
// involvement there.
func (c *Ctx) Get(dst int, s Sym, off, n int) []uint64 {
	if off < 0 || off+n > s.words {
		panic(fmt.Sprintf("shmem: Get [%d,%d) outside object of %d words", off, off+n, s.words))
	}
	out := make([]uint64, n)
	for base := 0; base < n; base += c.getCap {
		chunk := min(n-base, c.getCap)
		c.e.ArmGC(c.getGC, int64(chunk))
		q := vic.Word{Dst: dst, Op: vic.OpQuery, GC: vic.NoGC}
		c.e.ScatterN(vic.DMACached, chunk, func(i int) *vic.Word {
			q.Addr = s.addr + uint32(off+base+i)
			q.Val = vic.EncodeHeader(c.e.Rank(), vic.OpWrite, c.getGC, c.getBuf+uint32(i))
			return &q
		})
		c.e.WaitGC(c.getGC, sim.Forever)
		c.e.ReadInto(out[base:base+chunk], c.getBuf)
	}
	return out
}

// Local returns this node's copy of s (a DMA read into host memory).
func (c *Ctx) Local(s Sym) []uint64 { return c.e.Read(s.addr, s.words) }

// SetLocal overwrites this node's copy of s.
func (c *Ctx) SetLocal(s Sym, vals []uint64) {
	if len(vals) != s.words {
		panic("shmem: SetLocal size mismatch")
	}
	c.e.WriteLocal(s.addr, vals)
}

// Fence is the collective completion fence: on return, every Put issued by
// every node before its Fence call is visible in the target's DV Memory.
func (c *Ctx) Fence() {
	// All-gather the cumulative send matrix row of every node, then wait
	// for exactly the words addressed to this node.
	row := make([]uint64, c.e.Size())
	for i, v := range c.sentTo {
		row[i] = uint64(v)
	}
	matrix := c.coll.AllGather(row)
	var expected int64
	me := c.e.Rank()
	n := c.e.Size()
	for src := 0; src < n; src++ {
		expected += int64(matrix[src*n+me])
	}
	c.e.V.WaitGCAtMost(c.e.Proc(), c.incomingGC, -expected)
	// Trailing barrier: without it, a fast node's post-fence puts could be
	// counted by a slow node still waiting, standing in for pre-fence
	// words that are still in flight. After the barrier, no post-fence put
	// exists anywhere until every wait has completed.
	c.e.Barrier()
}

// ---------------------------------------------------------------------------
// Tiny collectives

// SumU64 returns the global sum of one contribution per node.
func (c *Ctx) SumU64(v uint64) uint64 {
	var sum uint64
	for _, w := range c.gatherOne(v) {
		sum += w
	}
	return sum
}

// Gather returns every node's float64 contribution in rank order.
func (c *Ctx) Gather(v float64) []float64 {
	words := c.gatherOne(floatBits(v))
	out := make([]float64, len(words))
	for i, w := range words {
		out[i] = floatFrom(w)
	}
	return out
}

// gatherOne all-gathers a single word per node, padding the collective's
// fixed width.
func (c *Ctx) gatherOne(v uint64) []uint64 {
	row := make([]uint64, c.e.Size())
	row[0] = v
	all := c.coll.AllGather(row)
	out := make([]uint64, c.e.Size())
	for i := range out {
		out[i] = all[i*c.e.Size()]
	}
	return out
}

// Barrier synchronises all nodes (the intrinsic VIC barrier).
func (c *Ctx) Barrier() { c.e.Barrier() }
