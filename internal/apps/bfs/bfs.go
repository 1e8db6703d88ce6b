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
package bfs

import (
	"fmt"

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

// ---------------------------------------------------------------------------
// Kronecker generator (R-MAT, Graph500 parameters A=.57 B=.19 C=.19 D=.05)

// GenerateEdge deterministically produces edge i of the graph.
func GenerateEdge(seed uint64, scale int, i int64) (u, v int64) {
	rng := sim.NewRNG(seed*0x2545f4914f6cdd1d + uint64(i)*0xbf58476d1ce4e5b9 + 11)
	for b := 0; b < scale; b++ {
		r := rng.Float64()
		var ub, vb int64
		switch {
		case r < 0.57: // A
		case r < 0.76: // B
			vb = 1
		case r < 0.95: // C
			ub = 1
		default: // D
			ub, vb = 1, 1
		}
		u = u<<1 | ub
		v = v<<1 | vb
	}
	return
}

// graph is one node's slab of the distributed graph in CSR form.
type graph struct {
	nv      int64 // global vertex count
	perNode int64 // owned vertices per node
	lo      int64 // first owned vertex
	adjOff  []int32
	adjList []int64
}

func owner(v, perNode int64) int { return int(v / perNode) }

// buildLocal constructs node id's slab. Generation is deterministic, so each
// node replays the full edge stream and keeps edges incident to its owned
// vertices (construction is untimed; Graph500 metrics cover the search
// phase only).
func buildLocal(par Params, id int) *graph {
	nv := int64(1) << par.Scale
	perNode := nv / int64(par.Nodes)
	lo := int64(id) * perNode
	hi := lo + perNode
	ne := nv * int64(par.EdgeFactor)
	deg := make([]int32, perNode)
	type edge struct{ from, to int64 }
	var edges []edge
	for i := int64(0); i < ne; i++ {
		u, v := GenerateEdge(par.Seed, par.Scale, i)
		if u == v {
			continue // self-loops contribute nothing to BFS
		}
		if u >= lo && u < hi {
			edges = append(edges, edge{u, v})
			deg[u-lo]++
		}
		if v >= lo && v < hi {
			edges = append(edges, edge{v, u})
			deg[v-lo]++
		}
	}
	g := &graph{nv: nv, perNode: perNode, lo: lo}
	g.adjOff = make([]int32, perNode+1)
	for i := int64(0); i < perNode; i++ {
		g.adjOff[i+1] = g.adjOff[i] + deg[i]
	}
	g.adjList = make([]int64, g.adjOff[perNode])
	fill := make([]int32, perNode)
	for _, e := range edges {
		li := e.from - lo
		g.adjList[g.adjOff[li]+fill[li]] = e.to
		fill[li]++
	}
	return g
}

func (g *graph) neighbors(localV int64) []int64 {
	return g.adjList[g.adjOff[localV]:g.adjOff[localV+1]]
}

// ChooseRoots picks deterministic search roots with nonzero degree.
func ChooseRoots(par Params) []int64 {
	par.defaults()
	nv := int64(1) << par.Scale
	rng := sim.NewRNG(par.Seed + 0xabcdef)
	// Degree check by scanning the edge stream once.
	hasEdge := make([]bool, nv)
	ne := nv * int64(par.EdgeFactor)
	for i := int64(0); i < ne; i++ {
		u, v := GenerateEdge(par.Seed, par.Scale, i)
		if u != v {
			hasEdge[u] = true
			hasEdge[v] = true
		}
	}
	roots := make([]int64, 0, par.NRoots)
	for len(roots) < par.NRoots {
		r := int64(rng.Uint64n(uint64(nv)))
		if hasEdge[r] {
			roots = append(roots, r)
		}
	}
	return roots
}

// sizeErr reports why the problem cannot be split over par.Nodes (nil when it
// can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	if (int64(1)<<par.Scale)%int64(par.Nodes) != 0 {
		return fmt.Errorf("bfs: 2^%d vertices not divisible over %d nodes", par.Scale, par.Nodes)
	}
	return nil
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	roots := ChooseRoots(par)
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
		g := buildLocal(par, n.ID)
		var st *dvState
		if net == comm.DV {
			st = newDVState(n, be, par.Nodes)
		}
		for si, root := range roots {
			parent := make([]int64, g.perNode)
			for i := range parent {
				parent[i] = -1
			}
			var s Search
			if net == comm.DV {
				s = searchDV(n, be, st, g, root, parent)
			} else {
				s = searchMPI(n, be, g, root, parent)
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
