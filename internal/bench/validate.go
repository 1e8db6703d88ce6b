package bench

import (
	"fmt"
	"math"
	"sync"

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
	verdict := func(workload, check string, pass bool, detail string) []Cell {
		r := "PASS"
		if !pass {
			r = "FAIL"
		}
		if detail != "" {
			r += " (" + detail + ")"
		}
		return []Cell{Text(workload), Text(check), Text(r)}
	}
	// Each check is one point: one run against its reference, the workloads'
	// runs on bothNets and then SNAP's convergence. A reference two points
	// share is computed once, by whichever needs it first.

	// GUPS: distributed tables equal serial XOR replay.
	gp := gups.Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 12,
		Seed: 1, KeepTables: true}
	// FFT: distributed spectrum equals serial FFT.
	fp := fft.Params{Nodes: 4, LogN: 12, KeepResult: true}
	fftWant := sync.OnceValue(func() []complex128 { return fft.SerialReference(fp) })
	// BFS: Graph500-style validation of the parent trees.
	bp := bfs.Params{Nodes: 4, Scale: 10, EdgeFactor: 8, NRoots: 2, KeepParents: true}
	// Heat: exact discrete decay of the fundamental mode.
	hp := heat.Params{Nodes: 8, N: 16, Steps: 10, KeepField: true}
	// Vorticity: distributed equals serial; Taylor–Green stationary.
	vp := vorticity.Params{Nodes: 4, N: 32, Steps: 5, KeepField: true}
	vortWant := sync.OnceValue(func() []float64 { return vorticity.SerialReference(vp) })
	// SNAP: flux equals serial; particle balance at convergence.
	sp := snap.Params{Nodes: 1, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true}
	snapWant := sync.OnceValue(func() []float64 { return snap.Run(comm.IB, sp).Flux })
	checks := []func(net comm.Net) []Cell{
		func(net comm.Net) []Cell {
			return verdict("GUPS", net.String()+" table == serial replay", gups.Verify(gp, gups.Run(net, gp)) == 0, "")
		},
		func(net comm.Net) []Cell {
			r := fft.Run(net, fp)
			worst := fftkernel.MaxAbsDiff(fftWant(), r.Spectrum)
			return verdict("FFT-1D", net.String()+" spectrum == serial FFT", worst < 1e-8*float64(r.N),
				fmt.Sprintf("max diff %.1e", worst))
		},
		func(net comm.Net) []Cell {
			r := bfs.Run(net, bp)
			pass := true
			for i, root := range bfs.ChooseRoots(bp) {
				if err := bfs.ValidateParents(bp, root, r.Parents[i]); err != nil {
					pass = false
				}
			}
			return verdict("Graph500 BFS", net.String()+" parent trees valid", pass, "")
		},
		func(net comm.Net) []Cell {
			err := heat.MaxErr(hp, heat.Run(net, hp).Field)
			return verdict("Heat", net.String()+" field == exact discrete solution", err < 1e-10,
				fmt.Sprintf("max err %.1e", err))
		},
		func(net comm.Net) []Cell {
			r := vorticity.Run(net, vp)
			want := vortWant()
			var worst float64
			for i := range want {
				if d := math.Abs(r.Field[i] - want[i]); d > worst {
					worst = d
				}
			}
			return verdict("Vorticity", net.String()+" field == serial run", worst < 1e-9,
				fmt.Sprintf("max diff %.1e", worst))
		},
		func(net comm.Net) []Cell {
			par := sp
			par.Nodes = 4
			r := snap.Run(net, par)
			want := snapWant()
			var worst float64
			for i := range want {
				if d := math.Abs(r.Flux[i] - want[i]); d > worst {
					worst = d
				}
			}
			return verdict("SNAP", net.String()+" flux == serial sweep", worst < 1e-12,
				fmt.Sprintf("max diff %.1e", worst))
		},
	}
	for _, row := range SweepRows(opt, t.ID, 2*len(checks)+1, len(t.Columns), func(i int) []Cell {
		if i < 2*len(checks) {
			return checks[i/2](bothNets[i%2])
		}
		conv := snap.Run(comm.DV, snap.Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 40, Tol: 1e-11})
		return verdict("SNAP", "particle balance at convergence", conv.Balance < 1e-8,
			fmt.Sprintf("residual %.1e", conv.Balance))
	}) {
		t.AddRow(row...)
	}
	return t
}
