// Heat demo: the paper's 3-D heat equation application with halo exchange,
// validated against the exact discrete solution, and timed on both stacks —
// one bar of Figure 9.
//
//	go run ./examples/heat [-n 16] [-steps 20] [-nodes 8]
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps/heat"
	"repro/internal/comm"
)

func main() {
	n := flag.Int("n", 16, "grid points per dimension")
	steps := flag.Int("steps", 20, "time steps")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	flag.Parse()

	par := heat.Params{Nodes: *nodes, N: *n, Steps: *steps, KeepField: true}
	px, py, pz := heat.Decompose(*nodes)
	fmt.Printf("3-D heat equation: %d^3 grid, %d steps, %d nodes (%dx%dx%d decomposition)\n",
		*n, *steps, *nodes, px, py, pz)

	dv := heat.Run(comm.DV, par)
	ib := heat.Run(comm.IB, par)
	fmt.Printf("Data Vortex: %v   (max error vs exact: %.2e)\n", dv.Elapsed, heat.MaxErr(par, dv.Field))
	fmt.Printf("Infiniband:  %v   (max error vs exact: %.2e)\n", ib.Elapsed, heat.MaxErr(par, ib.Field))
	fmt.Printf("speedup: %.2fx\n", float64(ib.Elapsed)/float64(dv.Elapsed))
}
