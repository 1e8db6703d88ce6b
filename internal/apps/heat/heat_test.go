package heat

import (
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

func TestDecompose(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 32, 12} {
		px, py, pz := Decompose(n)
		if px*py*pz != n {
			t.Errorf("Decompose(%d) = %d×%d×%d", n, px, py, pz)
		}
	}
}

func TestDVMatchesExact(t *testing.T) {
	par := Params{Nodes: 8, N: 16, Steps: 10, KeepField: true}
	r := Run(comm.DV, par)
	if err := MaxErr(par, r.Field); err > 1e-10 {
		t.Fatalf("DV max error %g vs discrete exact solution", err)
	}
}

func TestMPIMatchesExact(t *testing.T) {
	par := Params{Nodes: 8, N: 16, Steps: 10, KeepField: true}
	r := Run(comm.IB, par)
	if err := MaxErr(par, r.Field); err > 1e-10 {
		t.Fatalf("MPI max error %g vs discrete exact solution", err)
	}
}

func TestSingleNode(t *testing.T) {
	par := Params{Nodes: 1, N: 8, Steps: 5, KeepField: true}
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		r := Run(net, par)
		if err := MaxErr(par, r.Field); err > 1e-10 {
			t.Fatalf("%v single-node max error %g", net, err)
		}
	}
}

func TestAsymmetricDecomposition(t *testing.T) {
	// 2 nodes: slab decomposition; 4 nodes: pencil.
	for _, nodes := range []int{2, 4} {
		par := Params{Nodes: nodes, N: 16, Steps: 8, KeepField: true}
		r := Run(comm.DV, par)
		if err := MaxErr(par, r.Field); err > 1e-10 {
			t.Fatalf("nodes=%d max error %g", nodes, err)
		}
	}
}

func TestStepCountProperty(t *testing.T) {
	// The solver must agree with the exact discrete decay for any small
	// step count and stable K.
	check := func(stepsRaw, kRaw uint8) bool {
		par := Params{
			Nodes: 4, N: 8, Steps: int(stepsRaw%10) + 1,
			K:         0.02 + float64(kRaw%10)*0.01, // 0.02..0.11 < 1/6
			KeepField: true,
		}
		r := Run(comm.DV, par)
		return MaxErr(par, r.Field) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestDVFasterThanMPI pins the Figure 9 direction for the heat application:
// the restructured DV implementation beats MPI, in the ~2.5x region at the
// paper's 32-node scale.
func TestDVFasterThanMPI(t *testing.T) {
	// The paper's applications have "high communication cost per
	// computation": small local volumes at 32 nodes.
	par := Params{Nodes: 32, N: 16, Steps: 10}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	speedup := float64(ib.Elapsed) / float64(dv.Elapsed)
	if speedup < 1.8 {
		t.Fatalf("heat DV speedup %0.2fx, want clearly > 1", speedup)
	}
	if speedup > 6 {
		t.Fatalf("heat DV speedup %0.2fx looks uncalibrated", speedup)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, N: 16, Steps: 5}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestDecompositionSweep exercises every decomposition shape that divides
// the grid, on both stacks.
func TestDecompositionSweep(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		px, py, pz := Decompose(nodes)
		if 24%px != 0 || 24%py != 0 || 24%pz != 0 {
			continue
		}
		par := Params{Nodes: nodes, N: 24, Steps: 4, KeepField: true}
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := Run(net, par)
			if err := MaxErr(par, r.Field); err > 1e-10 {
				t.Errorf("nodes=%d net=%v: max error %g", nodes, net, err)
			}
		}
	}
}
