// Graph search demo: Graph500-style BFS over a Kronecker graph — a
// miniature of Figure 8, plus a look at the graph's power-law structure.
//
//	go run ./examples/graphsearch [-scale 14] [-nodes 8] [-roots 4]
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/apps/bfs"
	"repro/internal/comm"
)

func main() {
	scale := flag.Int("scale", 14, "log2 of vertex count")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	roots := flag.Int("roots", 4, "BFS roots")
	flag.Parse()

	par := bfs.Params{Nodes: *nodes, Scale: *scale, EdgeFactor: 8, NRoots: *roots}
	fmt.Printf("Graph500 BFS: 2^%d vertices, edge factor %d, %d nodes, %d roots\n",
		*scale, par.EdgeFactor, *nodes, *roots)

	// Degree skew of the Kronecker generator (why the traffic is irregular).
	deg := make(map[int64]int)
	for _, e := range bfs.Edges(1, *scale, par.EdgeFactor) {
		deg[e.U]++
		deg[e.V]++
	}
	degrees := make([]int, 0, len(deg))
	for _, d := range deg {
		degrees = append(degrees, d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	fmt.Printf("degree skew: max %d, median %d (power-law tail drives irregular traffic)\n",
		degrees[0], degrees[len(degrees)/2])

	dv := bfs.Run(comm.DV, par)
	ib := bfs.Run(comm.IB, par)
	fmt.Printf("%-14s %10s %12s %10s\n", "network", "MTEPS", "visited", "time/search")
	fmt.Printf("%-14s %10.1f %12d %10v\n", "Data Vortex",
		dv.HarmonicMeanTEPS()/1e6, dv.Searches[0].Visited, dv.Searches[0].Elapsed)
	fmt.Printf("%-14s %10.1f %12d %10v\n", "Infiniband",
		ib.HarmonicMeanTEPS()/1e6, ib.Searches[0].Visited, ib.Searches[0].Elapsed)
}
