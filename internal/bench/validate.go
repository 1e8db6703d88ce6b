package bench

import (
	"fmt"
	"math"

	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/apps/snap"
	"repro/internal/apps/vorticity"
	"repro/internal/comm"
	"repro/internal/fftkernel"
)

// Validate runs every workload's correctness check — each network variant
// against an independent serial reference — and reports PASS/FAIL rows.
// This is the release gate: the performance tables above mean nothing if
// the computations are wrong.
func Validate(opt Options) *Table {
	t := &Table{
		ID:      "validate",
		Title:   "Correctness: every workload vs serial reference",
		Columns: []string{"workload", "check", "result"},
	}
	add := func(workload, check string, pass bool, detail string) {
		r := "PASS"
		if !pass {
			r = "FAIL"
		}
		if detail != "" {
			r += " (" + detail + ")"
		}
		t.AddRow(Text(workload), Text(check), Text(r))
	}

	// GUPS: distributed tables equal serial XOR replay.
	{
		par := gups.Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 12,
			Seed: 1, KeepTables: true}
		want := gupsReplay(par)
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := gups.Run(net, par)
			pass := true
			for n := range want {
				for i := range want[n] {
					if r.Tables[n][i] != want[n][i] {
						pass = false
					}
				}
			}
			add("GUPS", net.String()+" table == serial replay", pass, "")
		}
	}
	// FFT: distributed spectrum equals serial FFT.
	{
		par := fft.Params{Nodes: 4, LogN: 12, KeepResult: true}
		want := fft.SerialReference(par)
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := fft.Run(net, par)
			worst := fftkernel.MaxAbsDiff(want, r.Spectrum)
			add("FFT-1D", net.String()+" spectrum == serial FFT", worst < 1e-8*float64(r.N),
				fmt.Sprintf("max diff %.1e", worst))
		}
	}
	// BFS: Graph500-style validation of the parent trees.
	{
		par := bfs.Params{Nodes: 4, Scale: 10, EdgeFactor: 8, NRoots: 2, KeepParents: true}
		roots := bfs.ChooseRoots(par)
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := bfs.Run(net, par)
			pass := true
			for i, root := range roots {
				if err := bfs.ValidateParents(par, root, r.Parents[i]); err != nil {
					pass = false
				}
			}
			add("Graph500 BFS", net.String()+" parent trees valid", pass, "")
		}
	}
	// Heat: exact discrete decay of the fundamental mode.
	{
		par := heat.Params{Nodes: 8, N: 16, Steps: 10, KeepField: true}
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := heat.Run(net, par)
			err := heat.MaxErr(par, r.Field)
			add("Heat", net.String()+" field == exact discrete solution", err < 1e-10,
				fmt.Sprintf("max err %.1e", err))
		}
	}
	// Vorticity: distributed equals serial; Taylor–Green stationary.
	{
		par := vorticity.Params{Nodes: 4, N: 32, Steps: 5, KeepField: true}
		want := vorticity.SerialReference(par)
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := vorticity.Run(net, par)
			var worst float64
			for i := range want {
				if d := math.Abs(r.Field[i] - want[i]); d > worst {
					worst = d
				}
			}
			add("Vorticity", net.String()+" field == serial run", worst < 1e-9,
				fmt.Sprintf("max diff %.1e", worst))
		}
	}
	// SNAP: flux equals serial; particle balance at convergence.
	{
		base := snap.Params{Nodes: 1, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true}
		want := snap.Run(comm.IB, base)
		par := base
		par.Nodes = 4
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := snap.Run(net, par)
			var worst float64
			for i := range want.Flux {
				if d := math.Abs(r.Flux[i] - want.Flux[i]); d > worst {
					worst = d
				}
			}
			add("SNAP", net.String()+" flux == serial sweep", worst < 1e-12,
				fmt.Sprintf("max diff %.1e", worst))
		}
		conv := snap.Run(comm.DV, snap.Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 40, Tol: 1e-11})
		add("SNAP", "particle balance at convergence", conv.Balance < 1e-8,
			fmt.Sprintf("residual %.1e", conv.Balance))
	}
	return t
}

// gupsReplay applies every node's update stream serially.
func gupsReplay(par gups.Params) [][]uint64 {
	tables := make([][]uint64, par.Nodes)
	for i := range tables {
		tables[i] = make([]uint64, par.TableWordsNode)
	}
	for node := 0; node < par.Nodes; node++ {
		rng := gups.UpdateStream(par.Seed, node)
		for u := 0; u < par.UpdatesPerNode; u++ {
			a := rng.Uint64()
			dst, li := gups.Owner(a, par.Nodes, par.TableWordsNode)
			tables[dst][li] ^= a
		}
	}
	return tables
}
