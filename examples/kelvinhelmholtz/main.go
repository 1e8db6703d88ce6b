// Kelvin–Helmholtz demo: the paper's ideal-incompressible-flow application
// run long enough for the shear-layer instability to roll up, rendered as
// ASCII vorticity maps — the physics the vorticity solver reproduces, plus
// the Figure 9 comparison on the same run.
//
//	go run ./examples/kelvinhelmholtz [-n 64] [-steps 120] [-nodes 8]
package main

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/apps/vorticity"
	"repro/internal/comm"
)

// render prints the vorticity field as an ASCII intensity map.
func render(field []float64, n, cols, rows int) {
	var min, max float64
	for _, v := range field {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	shades := []byte(" .:-=+*#%@")
	for r := 0; r < rows; r++ {
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			// Sample: x across columns, y down rows.
			x := c * n / cols
			y := r * n / rows
			v := field[x*n+y]
			idx := int((v - min) / (max - min + 1e-300) * float64(len(shades)-1))
			line[c] = shades[idx]
		}
		fmt.Printf("  |%s|\n", line)
	}
	fmt.Printf("  vorticity range [%.2f, %.2f]\n", min, max)
}

func main() {
	n := flag.Int("n", 64, "grid points per dimension (power of two)")
	steps := flag.Int("steps", 400, "time steps")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	flag.Parse()

	fmt.Printf("2-D Euler, Kelvin-Helmholtz double shear layer: %d^2 grid, %d nodes\n", *n, *nodes)
	for _, s := range []int{0, *steps / 2, *steps} {
		par := vorticity.Params{Nodes: *nodes, N: *n, Steps: s, Dt: 5e-3, RK2: true, KeepField: true}
		r := vorticity.Run(comm.DV, par)
		fmt.Printf("\nt = %d steps (energy %.4g, enstrophy %.4g):\n", s, r.Energy, r.Enstrophy)
		render(r.Field, *n, 64, 16)
	}

	par := vorticity.Params{Nodes: *nodes, N: *n, Steps: 10}
	dv := vorticity.Run(comm.DV, par)
	ib := vorticity.Run(comm.IB, par)
	fmt.Printf("\n10-step timing: Data Vortex %v vs MPI %v (speedup %.2fx)\n",
		dv.Elapsed, ib.Elapsed, float64(ib.Elapsed)/float64(dv.Elapsed))
}
