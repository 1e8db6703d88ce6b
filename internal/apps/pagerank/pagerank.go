// Package pagerank implements distributed PageRank over the same Kronecker
// graphs as the Graph500 benchmark — a second data-analytics kernel of the
// kind the paper's introduction motivates. Each power iteration pushes
// rank mass along out-edges: contributions are combined at the source per
// destination vertex, exchanged, and reduced at the owner.
//
// The Data Vortex variant is written entirely against the shmem PGAS layer
// (symmetric slabs, one-sided puts, the counting fence, and collective
// reductions), demonstrating that a software runtime in the style the paper
// surveys (§VIII) builds naturally on the VIC primitives. The baseline uses
// MPI all-to-all.
package pagerank

import (
	"math"

	"repro/internal/apprt"
	"repro/internal/apps/bfs"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/mpi"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// damping is the PageRank damping factor. It is typed so that 1-damping is
// computed from the rounded float64, as a run-time subtraction would be.
const damping float64 = 0.85

// Params configures a run.
type Params struct {
	Nodes      int
	Scale      int // 2^Scale vertices
	EdgeFactor int
	Tol        float64 // L1 convergence threshold
	MaxIters   int
	Seed       uint64
	// KeepRanks gathers the converged rank vector for validation.
	KeepRanks bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.Scale == 0 {
		p.Scale = 12
	}
	if p.EdgeFactor == 0 {
		p.EdgeFactor = 8
	}
	if p.Tol == 0 {
		p.Tol = 1e-8
	}
	if p.MaxIters == 0 {
		p.MaxIters = 50
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one measurement.
type Result struct {
	Net     comm.Net
	Nodes   int
	Iters   int
	Delta   float64 // final L1 change
	Elapsed sim.Time
	Ranks   []float64 // gathered when KeepRanks
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// SerialReference computes PageRank on one core.
func SerialReference(par Params) []float64 {
	par.defaults()
	nv := int64(1) << par.Scale
	edges := bfs.Edges(par.Seed, par.Scale, par.EdgeFactor)
	outDeg := make([]int32, nv)
	for _, e := range edges {
		if e.U != e.V {
			outDeg[e.U]++
		}
	}
	rank := make([]float64, nv)
	next := make([]float64, nv)
	for i := range rank {
		rank[i] = 1 / float64(nv)
	}
	for it := 0; it < par.MaxIters; it++ {
		var dangling float64
		for v := int64(0); v < nv; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(nv) + damping*dangling/float64(nv)
		for i := range next {
			next[i] = base
		}
		for _, e := range edges { // stream order: the sums below are order-sensitive
			if e.U != e.V {
				next[e.V] += damping * rank[e.U] / float64(outDeg[e.U])
			}
		}
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < par.Tol {
			break
		}
	}
	return rank
}

// sizeErr reports why the problem cannot be built or split over par.Nodes
// (nil when it can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	return bfs.SizeErr("pagerank", par.Scale, par.EdgeFactor, par.Nodes)
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	res := Result{Net: net, Nodes: par.Nodes}
	// One directed CSR for the run (self-loops dropped); every node reads
	// its slab of rows and the global out-degrees off the shared offsets.
	g := bfs.NewCSR(par.Scale, bfs.Edges(par.Seed, par.Scale, par.EdgeFactor), false)
	if par.KeepRanks {
		res.Ranks = make([]float64, int64(1)<<par.Scale)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		iters, delta, elapsed, ranks := runNode(n, be, net, par, g)
		if n.ID == 0 {
			res.Iters, res.Delta = iters, delta
		}
		if par.KeepRanks {
			perNode := (int64(1) << par.Scale) / int64(par.Nodes)
			copy(res.Ranks[int64(n.ID)*perNode:], ranks)
		}
		return elapsed
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	return res
}

func runNode(n *cluster.Node, be comm.Backend, net comm.Net, par Params, g *bfs.CSR) (int, float64, sim.Time, []float64) {
	nv := int64(1) << par.Scale
	p := par.Nodes
	perNode := nv / int64(p)
	lo := int64(n.ID) * perNode
	localEdges := int64(g.Off[lo+perNode] - g.Off[lo])

	rank := make([]float64, perNode)
	for i := range rank {
		rank[i] = 1 / float64(nv)
	}
	// contrib[g] accumulates this node's pushed mass per global vertex.
	contrib := make([]float64, nv)

	var ctx *shmem.Ctx
	var slab shmem.Sym // [src][localV] contribution slots
	// MPI scratch, kept across iterations: the contribution block for each
	// node, one received block's values, and sumAll's one-value message.
	var (
		send [][]byte
		vals []float64
		wire []byte
	)
	if net == comm.DV {
		ctx = shmem.New(be.Endpoint())
		slab = ctx.Malloc(p * int(perNode))
	} else {
		send = make([][]byte, p)
	}
	barrier := func() {
		if net == comm.DV {
			ctx.Barrier()
		} else {
			be.Barrier()
		}
	}
	// sumAll reduces one float64 in rank order on both stacks, so the two
	// variants stay bit-identical (a tree allreduce would reorder the sum).
	sumAll := func(v float64) float64 {
		var sum float64
		if net == comm.DV {
			for _, w := range ctx.Gather(v) {
				sum += w
			}
			return sum
		}
		wire = mpi.AppendFloat64s(wire[:0], []float64{v})
		for _, b := range be.MPI().Allgather(wire) {
			vals = mpi.Float64sInto(vals, b)
			sum += vals[0]
		}
		return sum
	}

	barrier()
	t0 := n.P.Now()
	iters := 0
	var delta float64
	for iters = 1; iters <= par.MaxIters; iters++ {
		// Push: combine contributions per destination vertex at the source.
		for i := range contrib {
			contrib[i] = 0
		}
		var dangling float64
		for li := int64(0); li < perNode; li++ {
			out := g.Row(lo + li)
			if len(out) == 0 {
				dangling += rank[li]
				continue
			}
			c := damping * rank[li] / float64(len(out))
			for _, v := range out {
				contrib[v] += c
			}
		}
		n.Ops(localEdges + perNode)
		gDangling := sumAll(dangling)

		// Exchange: deliver my per-destination slices.
		recvSum := make([]float64, perNode)
		if net == comm.DV {
			for q := 0; q < p; q++ {
				if q == n.ID {
					continue
				}
				slice := contrib[int64(q)*perNode : int64(q+1)*perNode]
				words := make([]uint64, perNode)
				for i, v := range slice {
					words[i] = math.Float64bits(v)
				}
				ctx.Put(q, slab, n.ID*int(perNode), words)
			}
			n.Compute(sim.BytesAt(int(nv)*8, 8e9)) // stage payloads
			ctx.Fence()
			raw := ctx.Local(slab)
			// Accumulate in source order (matching the MPI variant bit for
			// bit), substituting the local slice for our own slab slot.
			for src := 0; src < p; src++ {
				if src == n.ID {
					for i, v := range contrib[int64(src)*perNode : int64(src+1)*perNode] {
						recvSum[i] += v
					}
					continue
				}
				for i := int64(0); i < perNode; i++ {
					recvSum[i] += math.Float64frombits(raw[int64(src)*perNode+i])
				}
			}
		} else {
			for q := 0; q < p; q++ {
				send[q] = mpi.AppendFloat64s(send[q][:0], contrib[int64(q)*perNode:int64(q+1)*perNode])
			}
			n.Compute(sim.BytesAt(int(nv)*8, 8e9)) // pack
			for _, data := range be.MPI().Alltoall(send) {
				vals = mpi.Float64sInto(vals, data)
				for i, v := range vals {
					recvSum[i] += v
				}
			}
		}
		n.Ops(int64(p) * perNode)

		// Apply damping and the dangling redistribution; measure change.
		base := (1-damping)/float64(nv) + damping*gDangling/float64(nv)
		var localDelta float64
		for i := range rank {
			nv2 := base + recvSum[i]
			localDelta += math.Abs(nv2 - rank[i])
			rank[i] = nv2
		}
		n.Ops(perNode)
		delta = sumAll(localDelta)
		if delta < par.Tol {
			break
		}
	}
	elapsed := n.P.Now() - t0
	barrier()
	return iters, delta, elapsed, rank
}
