package spmv

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// runNode executes the multiply loop on one node, returning the measured
// span, the ghost-entry count, and the final local x slab.
func runNode(n *cluster.Node, be comm.Backend, net comm.Net, par Params, m *matrix) (sim.Time, int, []float64) {
	rows := m.rows

	// Ghost set: sorted unique remote columns; rewrite the CSR columns to
	// local x indices (own entries first, ghosts after).
	ghostIdx := make(map[int64]int)
	var ghosts []int64
	for _, c := range m.col {
		if c >= m.lo && c < m.lo+rows {
			continue
		}
		if _, ok := ghostIdx[c]; !ok {
			ghostIdx[c] = 0
			ghosts = append(ghosts, c)
		}
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })
	for i, g := range ghosts {
		ghostIdx[g] = i
	}
	xIndex := make([]int32, len(m.col))
	for k, c := range m.col {
		if c >= m.lo && c < m.lo+rows {
			xIndex[k] = int32(c - m.lo)
		} else {
			xIndex[k] = int32(rows) + int32(ghostIdx[c])
		}
	}

	x := make([]float64, rows)
	for i := range x {
		x[i] = x0(par.Seed, m.lo+int64(i))
	}
	xloc := make([]float64, int(rows)+len(ghosts))
	y := make([]float64, rows)

	var ex exchanger
	if net == comm.DV {
		ex = newDVExchanger(n, be, par, rows, ghosts)
	} else {
		ex = newMPIExchanger(n, be, par, rows, ghosts)
	}
	ex.barrier()
	t0 := n.P.Now()
	for it := 0; it < par.Iters; it++ {
		copy(xloc, x)
		ex.gather(x, xloc[rows:])
		// Local multiply.
		var max float64
		for r := int64(0); r < rows; r++ {
			var s float64
			for k, end := m.row(r); k < end; k++ {
				s += m.val[k] * xloc[xIndex[k]]
			}
			y[r] = s
			if a := math.Abs(s); a > max {
				max = a
			}
		}
		n.Flops(2 * float64(len(m.col)))
		gmax := ex.maxAll(max)
		for i := range x {
			x[i] = y[i] / gmax
		}
		n.Flops(float64(rows))
	}
	elapsed := n.P.Now() - t0
	ex.barrier()
	return elapsed, len(ghosts), x
}

// exchanger hides the two ghost-update implementations.
type exchanger interface {
	// gather fills ghostOut with the current remote x entries; x is this
	// node's slab (made visible to peers as needed).
	gather(x, ghostOut []float64)
	maxAll(v float64) float64
	barrier()
}

// ---------------------------------------------------------------------------
// Data Vortex: query-packet gathers

type dvExchanger struct {
	n       *cluster.Node
	e       *dv.Endpoint
	rows    int64
	ghosts  []int64
	xRegion uint32
	gRegion uint32
	gc      int
	coll    *dv.Collective
	queries []vic.Word // prepared query batch (payload = return header)
}

func newDVExchanger(n *cluster.Node, be comm.Backend, par Params, rows int64, ghosts []int64) *dvExchanger {
	e := be.Endpoint()
	ex := &dvExchanger{n: n, e: e, rows: rows, ghosts: ghosts}
	// Symmetric allocations first (identical on every node); the
	// variable-size ghost region must come last or the symmetric heap
	// diverges across nodes.
	ex.xRegion = e.Alloc(int(rows))
	ex.gc = e.AllocGC()
	ex.coll = dv.NewCollective(e, 1)
	gwords := len(ghosts)
	if gwords == 0 {
		gwords = 1
	}
	ex.gRegion = e.Alloc(gwords)
	// Prepare the query batch once: the pattern is fixed across iterations.
	ex.queries = make([]vic.Word, len(ghosts))
	for i, g := range ghosts {
		owner := int(g / rows)
		ret := vic.EncodeHeader(e.Rank(), vic.OpWrite, ex.gc, ex.gRegion+uint32(i))
		ex.queries[i] = vic.Word{Dst: owner, Op: vic.OpQuery, GC: vic.NoGC,
			Addr: ex.xRegion + uint32(g%rows), Val: ret}
	}
	e.Barrier()
	return ex
}

func (ex *dvExchanger) gather(x, ghostOut []float64) {
	e := ex.e
	// Publish this iteration's slab in DV Memory, fence, then ask the
	// owners' VICs for every ghost in one source-aggregated batch. The
	// owners' hosts are never involved: the VICs assemble the replies.
	raw := make([]uint64, len(x))
	for i, v := range x {
		raw[i] = math.Float64bits(v)
	}
	e.WriteLocal(ex.xRegion, raw)
	e.Barrier() // everyone's slab is queryable
	if len(ex.queries) > 0 {
		e.ArmGC(ex.gc, int64(len(ex.queries)))
		e.Scatter(vic.DMACached, ex.queries)
		e.WaitGC(ex.gc, sim.Forever)
		for i, w := range e.Read(ex.gRegion, len(ex.queries)) {
			ghostOut[i] = math.Float64frombits(w)
		}
	}
	ex.n.Ops(int64(len(ex.queries)))
}

func (ex *dvExchanger) maxAll(v float64) float64 { return ex.coll.AllReduceMaxFloat(v) }
func (ex *dvExchanger) barrier()                 { ex.e.Barrier() }

// ---------------------------------------------------------------------------
// MPI: owner-push ghost exchange with precomputed request lists

type mpiExchanger struct {
	n    *cluster.Node
	be   comm.Backend
	rows int64
	// wantFrom[q] lists the ghost slots whose value comes from q;
	// theirIdx[q] lists MY local indices that q asked me to push.
	wantFrom [][]int
	theirIdx [][]int32
	// wire[q] is the encoded push to q, in flight from Isend to the Waitall
	// that ends a gather; vals is one peer's values while they are packed
	// or unpacked.
	wire [][]byte
	vals []float64
}

func newMPIExchanger(n *cluster.Node, be comm.Backend, par Params, rows int64, ghosts []int64) *mpiExchanger {
	c := be.MPI()
	p := c.Size()
	ex := &mpiExchanger{n: n, be: be, rows: rows,
		wantFrom: make([][]int, p), theirIdx: make([][]int32, p), wire: make([][]byte, p)}
	// Setup (one time): tell each owner which of its entries we need.
	req := make([][]uint64, p)
	for slot, g := range ghosts {
		owner := int(g / rows)
		ex.wantFrom[owner] = append(ex.wantFrom[owner], slot)
		req[owner] = append(req[owner], uint64(g%rows))
	}
	send := make([][]byte, p)
	for q := range req {
		send[q] = mpi.AppendUint64s(nil, req[q])
	}
	var idxs []uint64
	for q, data := range c.Alltoall(send) {
		idxs = mpi.Uint64sInto(idxs, data)
		for _, idx := range idxs {
			ex.theirIdx[q] = append(ex.theirIdx[q], int32(idx))
		}
	}
	c.Barrier()
	return ex
}

func (ex *mpiExchanger) gather(x, ghostOut []float64) {
	c := ex.be.MPI()
	p := c.Size()
	var sends []*mpi.Request
	for q := 0; q < p; q++ {
		if q == c.Rank() || len(ex.theirIdx[q]) == 0 {
			continue
		}
		ex.vals = ex.vals[:0]
		for _, idx := range ex.theirIdx[q] {
			ex.vals = append(ex.vals, x[idx])
		}
		ex.n.Compute(sim.BytesAt(len(ex.vals)*8, 8e9)) // pack
		ex.wire[q] = mpi.AppendFloat64s(ex.wire[q][:0], ex.vals)
		sends = append(sends, c.Isend(q, 7, ex.wire[q]))
	}
	for q := 0; q < p; q++ {
		if q == c.Rank() || len(ex.wantFrom[q]) == 0 {
			continue
		}
		data, st := c.Recv(mpi.AnySource, 7)
		ex.vals = mpi.Float64sInto(ex.vals, data)
		for i, slot := range ex.wantFrom[st.Source] {
			ghostOut[slot] = ex.vals[i]
		}
	}
	c.Waitall(sends)
	ex.n.Ops(int64(len(ghostOut)))
}

func (ex *mpiExchanger) maxAll(v float64) float64 {
	return ex.be.MPI().Allreduce([]float64{v}, mpi.Max)[0]
}
func (ex *mpiExchanger) barrier() { ex.be.Barrier() }
