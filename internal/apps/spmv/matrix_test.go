package spmv

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps/bfs"
)

// refBuildLocal is the per-node builder runNode used before the stream was
// shared, kept as the reference for the slab views: node id replays the full
// edge stream into its rows, collapsing duplicates through a map, and
// appends the unit diagonal last. Offsets are relative to the slab.
func refBuildLocal(par Params, id int) *matrix {
	nv := int64(1) << par.Scale
	rows := nv / int64(par.Nodes)
	lo := int64(id) * rows
	hi := lo + rows
	type ent struct {
		r, c int64
		v    float64
	}
	var ents []ent
	deg := make([]int32, rows)
	ne := nv * int64(par.EdgeFactor)
	seen := make(map[[2]int64]bool)
	for i := int64(0); i < ne; i++ {
		u, v := bfs.GenerateEdge(par.Seed, par.Scale, i)
		if u == v || u < lo || u >= hi {
			continue
		}
		key := [2]int64{u, v}
		if seen[key] {
			continue // collapse duplicate entries
		}
		seen[key] = true
		ents = append(ents, ent{u, v, weight(par.Seed, u, v)})
		deg[u-lo]++
	}
	// Unit diagonal keeps every row non-empty.
	for r := lo; r < hi; r++ {
		ents = append(ents, ent{r, r, 1})
		deg[r-lo]++
	}
	m := &matrix{nv: nv, rows: rows, lo: lo}
	m.off = make([]int32, rows+1)
	for i := int64(0); i < rows; i++ {
		m.off[i+1] = m.off[i] + deg[i]
	}
	m.col = make([]int64, m.off[rows])
	m.val = make([]float64, m.off[rows])
	fill := make([]int32, rows)
	for _, e := range ents {
		li := e.r - lo
		at := m.off[li] + fill[li]
		m.col[at] = e.c
		m.val[at] = e.v
		fill[li]++
	}
	return m
}

// TestSlabMatchesPerNodeBuilder: every node's view of the shared matrix is
// the slab the node used to build for itself — same row ranges, columns and
// values in the same order, so every float sum runs in the same order.
func TestSlabMatchesPerNodeBuilder(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		par := Params{Scale: 10, EdgeFactor: 8, Seed: seed}
		whole := build(par)
		for _, nodes := range []int{1, 2, 8, 32} {
			par.Nodes = nodes
			for id := 0; id < nodes; id++ {
				m, ref := whole.slab(id, nodes), refBuildLocal(par, id)
				if m.nv != ref.nv || m.rows != ref.rows || m.lo != ref.lo ||
					!reflect.DeepEqual(m.col, ref.col) || !reflect.DeepEqual(m.val, ref.val) {
					t.Fatalf("seed %d nodes %d node %d: slab differs from the per-node build", seed, nodes, id)
				}
				for r := int64(0); r < m.rows; r++ {
					k, end := m.row(r)
					if k != ref.off[r] || end != ref.off[r+1] {
						t.Fatalf("seed %d nodes %d node %d: row %d is [%d,%d), per-node build has [%d,%d)",
							seed, nodes, id, r, k, end, ref.off[r], ref.off[r+1])
					}
				}
			}
		}
	}
}

func TestSizeErr(t *testing.T) {
	for _, c := range []struct {
		name                     string
		scale, edgeFactor, nodes int
		want                     string // substring of the error; "" = nil
	}{
		{"splits evenly", 12, 8, 32, ""},
		{"not divisible", 8, 8, 3, "not divisible over 3 nodes"},
		{"largest offsets that fit", 26, 15, 4, ""},
		{"offsets reach 2^31", 27, 8, 4, "EdgeFactor 8"},
		{"endpoint past 32 bits", 32, 1, 4, "Scale 32 > 31"},
	} {
		err := Params{Scale: c.scale, EdgeFactor: c.edgeFactor, Nodes: c.nodes}.sizeErr()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: sizeErr() = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "spmv: ")):
			t.Errorf("%s: sizeErr() = %v, want an spmv error naming %q", c.name, err, c.want)
		}
	}
}
