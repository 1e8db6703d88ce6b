package bfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// streamDigest hashes edges [0, n) of a (seed, scale) stream, each as two
// little-endian int64s.
func streamDigest(seed uint64, scale int, n int64) string {
	h := sha256.New()
	var b [16]byte
	for i := int64(0); i < n; i++ {
		u, v := GenerateEdge(seed, scale, i)
		binary.LittleEndian.PutUint64(b[:8], uint64(u))
		binary.LittleEndian.PutUint64(b[8:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamFrozen pins the Kronecker edge stream: the digests were recorded
// from the float-compare generator (PR 17's tree) before it was rewritten, so
// every golden Report that depends on the graph depends on these.
func TestStreamFrozen(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		scale int
		want  string
	}{
		{1, 13, "b352c7601b6f3c7460e17007c50ae479ea17f2fb9031a5c6ea7951857f460606"},
		{7, 12, "c604e473ac9741246637f10b8d3f785064e9373d46f11d0e349af01db1348ed5"},
		{1, 16, "6e51aaff4cabcdae050160e014b3e2ed17a267ab9e671f12194dad77e45db9e8"},
		{42, 20, "0393e800823594f4bee8a49b89114349af43f8714ebb341432b38839eea82d96"},
	} {
		if got := streamDigest(c.seed, c.scale, 1<<16); got != c.want {
			t.Errorf("seed %d scale %d: first 2^16 edges hash to %s, want %s", c.seed, c.scale, got, c.want)
		}
	}
}

// floatQuadrant is the generator's original quadrant choice: four-way
// branches over a Float64() compare.
func floatQuadrant(r53 uint64) (ub, vb int64) {
	r := float64(r53) / (1 << 53)
	switch {
	case r < 0.57: // A
	case r < 0.76: // B
		vb = 1
	case r < 0.95: // C
		ub = 1
	default: // D
		ub, vb = 1, 1
	}
	return
}

// TestQuadrantThresholds: each integer threshold is p·2^53 exactly, and the
// draws on either side of it (and a random sample between) land in the
// quadrant the float compare chose.
func TestQuadrantThresholds(t *testing.T) {
	draws := []uint64{0, 1<<53 - 1}
	for _, c := range []struct {
		p float64
		k uint64
	}{{0.57, kronA}, {0.76, kronAB}, {0.95, kronABC}} {
		if got := uint64(c.p * (1 << 53)); got != c.k || float64(got)/(1<<53) != c.p {
			t.Errorf("threshold for %v is %d, want %d = p*2^53 exactly", c.p, c.k, got)
		}
		draws = append(draws, c.k-1, c.k, c.k+1)
	}
	rng := sim.NewRNG(5)
	for i := 0; i < 1<<16; i++ {
		draws = append(draws, rng.Uint64()>>11)
	}
	for _, r := range draws {
		ub, vb := quadrant(r)
		if wu, wv := floatQuadrant(r); ub != wu || vb != wv {
			t.Errorf("draw %d: quadrant (%d,%d), float compare chose (%d,%d)", r, ub, vb, wu, wv)
		}
	}
}

// refBuildLocal is the per-node builder Run used before the stream was
// shared, kept as the reference for the slab views: node id replays the full
// edge stream and keeps the edges incident to its owned vertices.
func refBuildLocal(par Params, id int) (adjOff []int32, adjList []int64) {
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
	adjOff = make([]int32, perNode+1)
	for i := int64(0); i < perNode; i++ {
		adjOff[i+1] = adjOff[i] + deg[i]
	}
	adjList = make([]int64, adjOff[perNode])
	fill := make([]int32, perNode)
	for _, e := range edges {
		li := e.from - lo
		adjList[adjOff[li]+fill[li]] = e.to
		fill[li]++
	}
	return
}

// TestSlabMatchesPerNodeBuilder: every node's view of the shared CSR is the
// slab the node used to build for itself — same offsets, same neighbours in
// the same order.
func TestSlabMatchesPerNodeBuilder(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		par := Params{Scale: 10, EdgeFactor: 8, Seed: seed}
		csr := undirected(par)
		for _, nodes := range []int{1, 2, 8, 32} {
			par.Nodes = nodes
			for id := 0; id < nodes; id++ {
				g := slab(csr, id, nodes)
				refOff, refAdj := refBuildLocal(par, id)
				if g.perNode != int64(len(refOff)-1) || g.lo != int64(id)*g.perNode {
					t.Fatalf("seed %d nodes %d node %d: slab covers [%d,+%d)", seed, nodes, id, g.lo, g.perNode)
				}
				for li := int64(0); li < g.perNode; li++ {
					if g.adjOff[li+1]-g.adjOff[0] != refOff[li+1] ||
						!reflect.DeepEqual(g.neighbors(li), refAdj[refOff[li]:refOff[li+1]]) {
						t.Fatalf("seed %d nodes %d node %d: vertex %d differs from the per-node build",
							seed, nodes, id, g.lo+li)
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
		{"splits evenly", 13, 16, 32, ""},
		{"not divisible", 8, 16, 3, "not divisible over 3 nodes"},
		{"largest offsets that fit", 26, 15, 4, ""},
		{"offsets reach 2^31", 27, 8, 4, "EdgeFactor 8"},
		{"endpoint past 32 bits", 32, 1, 4, "Scale 32 > 31"},
	} {
		err := Params{Scale: c.scale, EdgeFactor: c.edgeFactor, Nodes: c.nodes}.sizeErr()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: sizeErr() = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "bfs: ")):
			t.Errorf("%s: sizeErr() = %v, want a bfs error naming %q", c.name, err, c.want)
		}
	}
}
