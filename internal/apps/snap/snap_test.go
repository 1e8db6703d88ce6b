package snap

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

func TestDecomposeYZ(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 6} {
		py, pz := DecomposeYZ(n)
		if py*pz != n {
			t.Errorf("DecomposeYZ(%d) = %d×%d", n, py, pz)
		}
	}
}

func TestDVMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true}
	serial := Run(comm.IB, Params{Nodes: 1, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true})
	dvr := Run(comm.DV, par)
	if d := maxAbsDiff(dvr.Flux, serial.Flux); d > 1e-12 {
		t.Fatalf("DV vs serial flux max diff %g", d)
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	par := Params{Nodes: 8, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true}
	serial := Run(comm.IB, Params{Nodes: 1, NX: 8, NY: 8, NZ: 8, MaxIters: 6, KeepFlux: true})
	ibr := Run(comm.IB, par)
	if d := maxAbsDiff(ibr.Flux, serial.Flux); d > 1e-12 {
		t.Fatalf("MPI vs serial flux max diff %g", d)
	}
}

// TestParticleBalance: diamond difference is conservative, so at convergence
// source = absorption + leakage.
func TestParticleBalance(t *testing.T) {
	par := Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 40, Tol: 1e-11}
	r := Run(comm.DV, par)
	if r.Err > 1e-11 {
		t.Fatalf("did not converge: err %g after %d iters", r.Err, r.Iters)
	}
	if r.Balance > 1e-8 {
		t.Fatalf("particle balance residual %g", r.Balance)
	}
}

func TestConvergenceRate(t *testing.T) {
	// Source iteration converges at roughly the scattering ratio (0.5).
	short := Run(comm.IB, Params{Nodes: 2, NX: 8, NY: 8, NZ: 8, MaxIters: 5, Tol: 0})
	long := Run(comm.IB, Params{Nodes: 2, NX: 8, NY: 8, NZ: 8, MaxIters: 10, Tol: 0})
	if long.Err >= short.Err {
		t.Fatalf("not converging: err %g after 5, %g after 10", short.Err, long.Err)
	}
	ratio := math.Pow(long.Err/short.Err, 1.0/5)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("convergence rate %0.2f per iteration, want ~0.5", ratio)
	}
}

func TestFluxPositive(t *testing.T) {
	r := Run(comm.DV, Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 8, KeepFlux: true})
	for i, v := range r.Flux {
		if v <= 0 {
			t.Fatalf("flux[%d] = %g not positive", i, v)
		}
	}
}

// TestDVModestSpeedup pins the Figure 9 direction for SNAP: the best-effort
// port wins, but modestly (the paper reports 1.19x).
func TestDVModestSpeedup(t *testing.T) {
	par := Params{Nodes: 16, NX: 16, NY: 16, NZ: 16, MaxIters: 4}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	speedup := float64(ib.Elapsed) / float64(dv.Elapsed)
	if speedup < 1.0 {
		t.Fatalf("SNAP DV speedup %0.2fx; the port should not lose", speedup)
	}
	if speedup > 2.0 {
		t.Fatalf("SNAP DV speedup %0.2fx; best-effort port should be modest", speedup)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 4}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestGridSweep: asymmetric meshes and process grids against serial.
func TestGridSweep(t *testing.T) {
	for _, c := range []struct{ nodes, nx, ny, nz int }{
		{2, 8, 8, 4}, {4, 4, 8, 16}, {8, 8, 16, 8}, {6, 8, 12, 6},
	} {
		serial := Run(comm.IB, Params{Nodes: 1, NX: c.nx, NY: c.ny, NZ: c.nz,
			ChunkX: 4, MaxIters: 4, KeepFlux: true})
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			r := Run(net, Params{Nodes: c.nodes, NX: c.nx, NY: c.ny, NZ: c.nz,
				ChunkX: 4, MaxIters: 4, KeepFlux: true})
			if d := maxAbsDiff(r.Flux, serial.Flux); d > 1e-12 {
				t.Errorf("%+v net=%v: flux diff %g", c, net, d)
			}
		}
	}
}

func TestChunkGuardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// 16 chunks would need 128 counters.
	Run(comm.DV, Params{Nodes: 2, NX: 16, NY: 4, NZ: 4, ChunkX: 1, MaxIters: 1})
}
