// Package bfs implements the Graph500 breadth-first-search benchmark (§VI,
// Figure 8): a Kronecker (R-MAT) graph distributed 1-D over the cluster,
// searched level-synchronously from random roots, reporting harmonic-mean
// TEPS. Vertex visits are 8-byte transactions to unpredictable destinations
// — the canonical irregular workload.
//
// The MPI variant buckets visit messages by owner and exchanges them with an
// all-to-all every level (destination aggregation, which the paper notes is
// hard to do efficiently). The Data Vortex variant sends each visit as one
// fine-grained packet to the owner's surprise FIFO, aggregated only at the
// source to amortise PCIe crossings.
//
// The graph is built once per run (kron.go): the edge stream is generated in
// one pass and counting-sorted into one CSR, of which every simulated node
// reads its slab of rows. pagerank and spmv build theirs the same way.
package bfs

import (
	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

// Params configures a run.
type Params struct {
	Nodes      int
	Scale      int // 2^Scale vertices
	EdgeFactor int // edges per vertex (Graph500 default 16)
	NRoots     int // searches (the paper runs 64)
	Seed       uint64
	// KeepParents retains each search's parent array for validation.
	KeepParents bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.Scale == 0 {
		p.Scale = 12
	}
	if p.EdgeFactor == 0 {
		p.EdgeFactor = 16
	}
	if p.NRoots == 0 {
		p.NRoots = 4
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one measurement.
type Result struct {
	Net      comm.Net
	Nodes    int
	Scale    int
	Searches []Search
	// Parents[i] is search i's full parent array when KeepParents was set
	// (-1 for unreached vertices).
	Parents [][]int64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// Search is one BFS measurement.
type Search struct {
	Root    int64
	Edges   int64 // edges scanned
	Elapsed sim.Time
	Visited int64
}

// TEPS returns one search's traversed-edges-per-second rate.
func (s Search) TEPS() float64 { return float64(s.Edges) / s.Elapsed.Seconds() }

// HarmonicMeanTEPS returns the Graph500 summary statistic (Figure 8's y
// axis).
func (r Result) HarmonicMeanTEPS() float64 {
	var inv float64
	for _, s := range r.Searches {
		inv += 1 / s.TEPS()
	}
	return float64(len(r.Searches)) / inv
}

// graph is one node's slab of the distributed graph: a read-only view of
// the run's one undirected CSR (construction is untimed; Graph500 metrics
// cover the search phase only).
type graph struct {
	perNode int64   // owned vertices per node
	lo      int64   // first owned vertex
	adjOff  []int32 // perNode+1 offsets into the shared adjList
	adjList []int64
}

func owner(v, perNode int64) int { return int(v / perNode) }

func slab(csr *CSR, id, nodes int) *graph {
	perNode := int64(len(csr.Off)-1) / int64(nodes)
	lo := int64(id) * perNode
	return &graph{perNode: perNode, lo: lo, adjOff: csr.Off[lo : lo+perNode+1], adjList: csr.Adj}
}

func (g *graph) neighbors(localV int64) []int64 {
	return g.adjList[g.adjOff[localV]:g.adjOff[localV+1]]
}

// undirected generates par's edge stream and builds its CSR.
func undirected(par Params) *CSR {
	return NewCSR(par.Scale, Edges(par.Seed, par.Scale, par.EdgeFactor), true)
}

// ChooseRoots picks deterministic search roots with nonzero degree.
func ChooseRoots(par Params) []int64 {
	par.defaults()
	return chooseRoots(par, undirected(par))
}

func chooseRoots(par Params, csr *CSR) []int64 {
	rng := sim.NewRNG(par.Seed + 0xabcdef)
	roots := make([]int64, 0, par.NRoots)
	for len(roots) < par.NRoots {
		r := int64(rng.Uint64n(uint64(1) << par.Scale))
		if len(csr.Row(r)) > 0 {
			roots = append(roots, r)
		}
	}
	return roots
}

// sizeErr reports why the problem cannot be built or split over par.Nodes
// (nil when it can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	return SizeErr("bfs", par.Scale, par.EdgeFactor, par.Nodes)
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	csr := undirected(par)
	roots := chooseRoots(par, csr)
	res := Result{Net: net, Nodes: par.Nodes, Scale: par.Scale,
		Searches: make([]Search, len(roots))}
	if par.KeepParents {
		res.Parents = make([][]int64, len(roots))
		for i := range res.Parents {
			res.Parents[i] = make([]int64, int64(1)<<par.Scale)
		}
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		g := slab(csr, n.ID, par.Nodes)
		var st *dvState
		if net == comm.DV {
			st = newDVState(n, be, par.Nodes)
		}
		send := make([][]byte, par.Nodes) // searchMPI's per-owner send blocks
		for si, root := range roots {
			parent := make([]int64, g.perNode)
			for i := range parent {
				parent[i] = -1
			}
			var s Search
			if net == comm.DV {
				s = searchDV(n, be, st, g, root, parent)
			} else {
				s = searchMPI(n, be, g, root, parent, send)
			}
			// Global sums are gathered in-search; node 0's view is
			// authoritative.
			if n.ID == 0 {
				s.Root = root
				res.Searches[si] = s
			}
			if par.KeepParents {
				copy(res.Parents[si][g.lo:g.lo+g.perNode], parent)
			}
		}
		return 0
	})
	res.Report = rep.Cluster
	return res
}
