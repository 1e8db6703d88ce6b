package pagerank

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps/bfs"
)

// refOutEdges is the per-node builder runNode used before the stream was
// shared, kept as the reference for the slab views: node id replays the full
// edge stream into the out-adjacency of its owned vertices (directed edges as
// generated; self-loops dropped) plus the global out-degree vector.
func refOutEdges(par Params, id int) (adjOff []int32, adj []int64, outDeg []int32, perNode int64) {
	nv := int64(1) << par.Scale
	perNode = nv / int64(par.Nodes)
	lo := int64(id) * perNode
	hi := lo + perNode
	ne := nv * int64(par.EdgeFactor)
	outDeg = make([]int32, nv)
	deg := make([]int32, perNode)
	type edge struct{ u, v int64 }
	var local []edge
	for i := int64(0); i < ne; i++ {
		u, v := bfs.GenerateEdge(par.Seed, par.Scale, i)
		if u == v {
			continue
		}
		outDeg[u]++
		if u >= lo && u < hi {
			local = append(local, edge{u, v})
			deg[u-lo]++
		}
	}
	adjOff = make([]int32, perNode+1)
	for i := int64(0); i < perNode; i++ {
		adjOff[i+1] = adjOff[i] + deg[i]
	}
	adj = make([]int64, adjOff[perNode])
	fill := make([]int32, perNode)
	for _, e := range local {
		li := e.u - lo
		adj[adjOff[li]+fill[li]] = e.v
		fill[li]++
	}
	return
}

// TestSlabMatchesPerNodeBuilder: every node's rows of the shared CSR, and
// the out-degrees read off its offsets, are what the node used to build for
// itself.
func TestSlabMatchesPerNodeBuilder(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		par := Params{Scale: 10, EdgeFactor: 8, Seed: seed}
		g := bfs.NewCSR(par.Scale, bfs.Edges(par.Seed, par.Scale, par.EdgeFactor), false)
		for _, nodes := range []int{1, 2, 8, 32} {
			par.Nodes = nodes
			for id := 0; id < nodes; id++ {
				refOff, refAdj, refDeg, perNode := refOutEdges(par, id)
				for v := range refDeg {
					if got := int32(len(g.Row(int64(v)))); got != refDeg[v] {
						t.Fatalf("seed %d nodes %d node %d: outDeg[%d] = %d, per-node build has %d",
							seed, nodes, id, v, got, refDeg[v])
					}
				}
				lo := int64(id) * perNode
				for li := int64(0); li < perNode; li++ {
					if g.Off[lo+li+1]-g.Off[lo] != refOff[li+1] ||
						!reflect.DeepEqual(g.Row(lo+li), refAdj[refOff[li]:refOff[li+1]]) {
						t.Fatalf("seed %d nodes %d node %d: vertex %d differs from the per-node build",
							seed, nodes, id, lo+li)
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
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "pagerank: ")):
			t.Errorf("%s: sizeErr() = %v, want a pagerank error naming %q", c.name, err, c.want)
		}
	}
}
