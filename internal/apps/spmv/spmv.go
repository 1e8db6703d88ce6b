// Package spmv implements distributed sparse matrix–vector multiplication,
// the canonical irregular kernel of the paper's introduction ("data
// structures built on pointers or linked-lists such as graphs, sparse
// matrices ... data can potentially be accessed from any node with
// transaction sizes of only a few bytes"). The matrix is the adjacency
// structure of a Kronecker graph plus the unit diagonal; rows and the
// vector are block-distributed.
//
// Each multiply needs the remote x entries named by the local rows' column
// sets (the "ghost" entries). The MPI variant does the standard owner-push
// ghost exchange: request lists are computed once, then every multiply
// ships value messages point-to-point. The Data Vortex variant instead
// issues one source-aggregated batch of QUERY packets per multiply: the
// owners' VICs assemble the replies in hardware — no host on the owner side
// ever touches the request — and a group counter announces when every ghost
// has landed. Fine-grained remote reads are exactly what the fabric was
// designed for.
package spmv

import (
	"math"

	"repro/internal/apprt"
	"repro/internal/apps/bfs"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

// Params configures a run.
type Params struct {
	Nodes      int
	Scale      int // 2^Scale rows/columns
	EdgeFactor int // nonzeros per row (average, power-law distributed)
	Iters      int // multiplies (with max-normalisation between)
	Seed       uint64
	// KeepVector gathers the final vector for validation.
	KeepVector bool
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
	if p.Iters == 0 {
		p.Iters = 4
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
	Elapsed sim.Time
	// GhostWords is the per-multiply remote-entry count of node 0
	// (telemetry for the study).
	GhostWords int
	Vector     []float64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// weight deterministically assigns a matrix value to entry (u, v).
func weight(seed uint64, u, v int64) float64 {
	r := sim.NewRNG(seed ^ uint64(u)<<21 ^ uint64(v)*0x94d049bb133111eb)
	return r.Float64()*0.5 + 0.25
}

// x0 is the deterministic initial vector entry.
func x0(seed uint64, i int64) float64 {
	r := sim.NewRNG(seed*3 + uint64(i)*0x2545f4914f6cdd1d)
	return r.Float64() + 0.5
}

// matrix is CSR rows [lo, lo+rows) with global column ids: the whole
// matrix, or one node's read-only slab of it. off holds offsets into the
// whole matrix's entries; col and val start at the slab's first row.
type matrix struct {
	nv   int64
	rows int64
	lo   int64
	off  []int32
	col  []int64
	val  []float64
}

// row returns the half-open range of r's entries in m.col and m.val.
func (m *matrix) row(r int64) (int32, int32) { return m.off[r] - m.off[0], m.off[r+1] - m.off[0] }

// build constructs the whole matrix once per run (construction is untimed,
// as in the BFS benchmark): the directed edges of each row in stream order
// with duplicates collapsed onto their first occurrence, then the unit
// diagonal.
func build(par Params) *matrix {
	nv := int64(1) << par.Scale
	g := bfs.NewCSR(par.Scale, bfs.Edges(par.Seed, par.Scale, par.EdgeFactor), false)
	m := &matrix{nv: nv, rows: nv, off: make([]int32, nv+1),
		col: make([]int64, 0, len(g.Adj)+int(nv)), val: make([]float64, 0, len(g.Adj)+int(nv))}
	inRow := make([]int64, nv) // inRow[c] == r+1 once row r holds column c
	for r := int64(0); r < nv; r++ {
		for _, c := range g.Row(r) {
			if inRow[c] == r+1 {
				continue // collapse duplicate entries
			}
			inRow[c] = r + 1
			m.col = append(m.col, c)
			m.val = append(m.val, weight(par.Seed, r, c))
		}
		// Unit diagonal keeps every row non-empty.
		m.col = append(m.col, r)
		m.val = append(m.val, 1)
		m.off[r+1] = int32(len(m.col))
	}
	return m
}

// slab returns node id's block of rows as a view of m.
func (m *matrix) slab(id, nodes int) *matrix {
	rows := m.nv / int64(nodes)
	lo := int64(id) * rows
	return &matrix{nv: m.nv, rows: rows, lo: lo, off: m.off[lo : lo+rows+1],
		col: m.col[m.off[lo]:m.off[lo+rows]], val: m.val[m.off[lo]:m.off[lo+rows]]}
}

// SerialReference runs the iteration on one core.
func SerialReference(par Params) []float64 {
	par.defaults()
	m := build(par)
	x := make([]float64, m.nv)
	for i := range x {
		x[i] = x0(par.Seed, int64(i))
	}
	y := make([]float64, m.nv)
	for it := 0; it < par.Iters; it++ {
		var max float64
		for r := int64(0); r < m.nv; r++ {
			var s float64
			for k, end := m.row(r); k < end; k++ {
				s += m.val[k] * x[m.col[k]]
			}
			y[r] = s
			if a := math.Abs(s); a > max {
				max = a
			}
		}
		for i := range x {
			x[i] = y[i] / max
		}
	}
	return x
}

// sizeErr reports why the problem cannot be built or split over par.Nodes
// (nil when it can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	return bfs.SizeErr("spmv", par.Scale, par.EdgeFactor, par.Nodes)
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	res := Result{Net: net, Nodes: par.Nodes, Iters: par.Iters}
	whole := build(par)
	if par.KeepVector {
		res.Vector = make([]float64, int64(1)<<par.Scale)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		elapsed, ghost, x := runNode(n, be, net, par, whole.slab(n.ID, par.Nodes))
		if n.ID == 0 {
			res.GhostWords = ghost
		}
		if par.KeepVector {
			perNode := (int64(1) << par.Scale) / int64(par.Nodes)
			copy(res.Vector[int64(n.ID)*perNode:], x)
		}
		return elapsed
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	return res
}
