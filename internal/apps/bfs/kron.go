package bfs

import (
	"fmt"

	"repro/internal/sim"
)

// Kronecker generator (R-MAT, Graph500 parameters A=.57 B=.19 C=.19 D=.05)
// and the CSR every graph app builds from its edge stream. A run generates
// the stream once; nodes get read-only slab views of the one CSR.

// Quadrant thresholds on a 53-bit draw r: float64(r)/2^53 < p exactly when
// r < p·2^53, because r, the division and (for p in [0.5, 1)) the product
// are all exact in float64.
const (
	kronA   = 5134103575202365 // 0.57 · 2^53
	kronAB  = 6845471433603154 // 0.76 · 2^53
	kronABC = 8556839292003942 // 0.95 · 2^53
)

// quadrant returns the (u, v) bits a 53-bit draw selects. Both operands of
// each subtraction are below 2^53, so its sign bit is the comparison.
func quadrant(r uint64) (ub, vb int64) {
	ltA, ltAB, ltABC := (r-kronA)>>63, (r-kronAB)>>63, (r-kronABC)>>63
	return int64(1 - ltAB), int64(ltA ^ ltAB ^ ltABC ^ 1) // A 0,0  B 0,1  C 1,0  D 1,1
}

// GenerateEdge deterministically produces edge i of the graph.
func GenerateEdge(seed uint64, scale int, i int64) (u, v int64) {
	rng := sim.NewRNG(seed*0x2545f4914f6cdd1d + uint64(i)*0xbf58476d1ce4e5b9 + 11)
	for b := 0; b < scale; b++ {
		ub, vb := quadrant(rng.Uint64() >> 11) // the 53 bits Float64 draws
		u = u<<1 | ub
		v = v<<1 | vb
	}
	return
}

// Edge is one edge of the generated stream.
type Edge struct{ U, V int64 }

// Edges materialises the whole stream of a 2^scale-vertex graph.
func Edges(seed uint64, scale, edgeFactor int) []Edge {
	edges := make([]Edge, int64(edgeFactor)<<scale)
	for i := range edges {
		edges[i].U, edges[i].V = GenerateEdge(seed, scale, int64(i))
	}
	return edges
}

// CSR is a graph in compressed-sparse-row form: vertex v's neighbours are
// Adj[Off[v]:Off[v+1]], in stream order. A node's slab is Off[lo:hi+1] over
// the shared Adj.
type CSR struct {
	Off []int32
	Adj []int64
}

// NewCSR counting-sorts the stream by source vertex, dropping self-loops;
// undirected also files every edge under its destination.
func NewCSR(scale int, edges []Edge, undirected bool) *CSR {
	nv := int64(1) << scale
	g := &CSR{Off: make([]int32, nv+1)}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		g.Off[e.U+1]++
		if undirected {
			g.Off[e.V+1]++
		}
	}
	for v := int64(0); v < nv; v++ {
		g.Off[v+1] += g.Off[v]
	}
	g.Adj = make([]int64, g.Off[nv])
	next := append([]int32(nil), g.Off[:nv]...)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		g.Adj[next[e.U]] = e.V
		next[e.U]++
		if undirected {
			g.Adj[next[e.V]] = e.U
			next[e.V]++
		}
	}
	return g
}

// Row returns v's neighbours.
func (g *CSR) Row(v int64) []int64 { return g.Adj[g.Off[v]:g.Off[v+1]] }

// SizeErr reports why app cannot hold a 2^scale-vertex stream split over
// nodes (nil when it can): CSR offsets are int32 and a BFS visit packs two
// 32-bit endpoints, so larger sizes would wrap silently.
func SizeErr(app string, scale, edgeFactor, nodes int) error {
	switch {
	case scale > 31:
		return fmt.Errorf("%s: Scale %d > 31: vertex ids must fit 32 bits", app, scale)
	case 2*(int64(edgeFactor)<<scale) >= 1<<31:
		return fmt.Errorf("%s: Scale %d with EdgeFactor %d: 2*2^%d*%d entries overflow the int32 CSR offsets",
			app, scale, edgeFactor, scale, edgeFactor)
	case (int64(1)<<scale)%int64(nodes) != 0:
		return fmt.Errorf("%s: 2^%d vertices not divisible over %d nodes", app, scale, nodes)
	}
	return nil
}
