// GUPS demo: the paper's headline irregular workload, run on both network
// stacks across a node sweep — a miniature of Figure 6. Shows how to drive
// a workload package directly and read its metrics.
//
//	go run ./examples/gups [-updates 16384] [-table 65536]
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps/gups"
	"repro/internal/comm"
)

func main() {
	updates := flag.Int("updates", 1<<14, "updates per node")
	table := flag.Int("table", 1<<16, "table words per node (power of two)")
	flag.Parse()

	fmt.Println("GUPS: random 8-byte updates against a distributed table")
	fmt.Printf("%-6s %22s %22s\n", "nodes", "Data Vortex (MUPS/PE)", "Infiniband (MUPS/PE)")
	for _, n := range []int{4, 8, 16, 32} {
		par := gups.Params{Nodes: n, TableWordsNode: *table, UpdatesPerNode: *updates}
		dv := gups.Run(comm.DV, par)
		ib := gups.Run(comm.IB, par)
		fmt.Printf("%-6d %22.2f %22.2f\n", n, dv.MUPSPerNode(), ib.MUPSPerNode())
	}

	// Correctness: both variants must produce the identical table.
	par := gups.Params{Nodes: 8, TableWordsNode: 1 << 12, UpdatesPerNode: 1 << 12, KeepTables: true}
	a := gups.Run(comm.DV, par)
	b := gups.Run(comm.IB, par)
	for node := range a.Tables {
		for i := range a.Tables[node] {
			if a.Tables[node][i] != b.Tables[node][i] {
				fmt.Printf("MISMATCH at node %d word %d\n", node, i)
				return
			}
		}
	}
	fmt.Println("verification: DV and MPI tables identical")
}
