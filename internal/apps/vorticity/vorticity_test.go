package vorticity

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestTaylorGreenStationary: the Taylor–Green vortex is an exact stationary
// solution of 2-D Euler, so the solver must leave it unchanged (up to
// rounding) regardless of step count.
func TestTaylorGreenStationary(t *testing.T) {
	par := Params{Nodes: 4, N: 32, Steps: 10, Dt: 1e-2, InitTaylorGreen: true, KeepField: true}
	r := Run(comm.DV, par)
	N := par.N
	h := 2 * math.Pi / float64(N)
	var worst float64
	for x := 0; x < N; x++ {
		for y := 0; y < N; y++ {
			want := initialVorticity(par, float64(x)*h, float64(y)*h)
			if d := math.Abs(r.Field[x*N+y] - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-8 {
		t.Fatalf("Taylor–Green drifted by %g", worst)
	}
}

func TestDVMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, N: 32, Steps: 5, KeepField: true}
	want := SerialReference(par)
	got := Run(comm.DV, par)
	if d := maxAbsDiff(got.Field, want); d > 1e-9 {
		t.Fatalf("DV vs serial max diff %g", d)
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	par := Params{Nodes: 8, N: 32, Steps: 5, KeepField: true}
	want := SerialReference(par)
	got := Run(comm.IB, par)
	if d := maxAbsDiff(got.Field, want); d > 1e-9 {
		t.Fatalf("MPI vs serial max diff %g", d)
	}
}

// TestInvariantsConserved: 2-D Euler conserves kinetic energy and enstrophy;
// the dealiased pseudo-spectral discretisation should drift only at the
// O(dt) level of forward Euler.
func TestInvariantsConserved(t *testing.T) {
	base := Params{Nodes: 4, N: 64, Steps: 0, Dt: 2e-4, KeepField: false}
	r0 := Run(comm.DV, base)
	long := base
	long.Steps = 20
	r1 := Run(comm.DV, long)
	if rel := math.Abs(r1.Energy-r0.Energy) / r0.Energy; rel > 1e-3 {
		t.Errorf("energy drifted by %g", rel)
	}
	if rel := math.Abs(r1.Enstrophy-r0.Enstrophy) / r0.Enstrophy; rel > 1e-2 {
		t.Errorf("enstrophy drifted by %g", rel)
	}
}

// TestKHInstabilityGrows: the shear layers are unstable; the perturbation
// should feed energy into higher harmonics rather than stay frozen.
func TestKHInstabilityGrows(t *testing.T) {
	par := Params{Nodes: 4, N: 64, Steps: 40, Dt: 2e-3, KeepField: true}
	r := Run(comm.DV, par)
	ref := SerialReference(Params{Nodes: 1, N: 64, Steps: 0, KeepField: true})
	if d := maxAbsDiff(r.Field, ref); d < 1e-4 {
		t.Fatalf("field unchanged after 40 steps (diff %g); dynamics missing", d)
	}
}

// TestRK2ConservesBetter: Heun's method should hold energy tighter than
// forward Euler at the same step size.
func TestRK2ConservesBetter(t *testing.T) {
	drift := func(rk2 bool) float64 {
		base := Params{Nodes: 4, N: 64, Steps: 0, Dt: 2e-3, RK2: rk2}
		r0 := Run(comm.DV, base)
		long := base
		long.Steps = 15
		r1 := Run(comm.DV, long)
		return abs(r1.Energy-r0.Energy) / r0.Energy
	}
	euler, heun := drift(false), drift(true)
	if heun > euler {
		t.Fatalf("RK2 drift (%g) worse than Euler (%g)", heun, euler)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestDVFasterThanMPI pins the Figure 9 direction for the vorticity
// application (the paper reports up to 3.41x at 32 nodes).
func TestDVFasterThanMPI(t *testing.T) {
	par := Params{Nodes: 32, N: 128, Steps: 3}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	speedup := float64(ib.Elapsed) / float64(dv.Elapsed)
	if speedup < 1.8 {
		t.Fatalf("vorticity DV speedup %0.2fx, want clearly > 1", speedup)
	}
	if speedup > 7 {
		t.Fatalf("vorticity DV speedup %0.2fx looks uncalibrated", speedup)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, N: 32, Steps: 3}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestNodeCountSweep: distributed runs match serial across node counts.
func TestNodeCountSweep(t *testing.T) {
	par := Params{N: 32, Steps: 3, KeepField: true}
	want := SerialReference(par)
	for _, nodes := range []int{1, 2, 8, 16, 32} {
		p := par
		p.Nodes = nodes
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			got := Run(net, p)
			if d := maxAbsDiff(got.Field, want); d > 1e-9 {
				t.Errorf("nodes=%d net=%v: max diff %g", nodes, net, d)
			}
		}
	}
}
