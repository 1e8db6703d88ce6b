package pagerank

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func TestDVMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, Scale: 9, EdgeFactor: 6, MaxIters: 30, KeepRanks: true}
	want := SerialReference(par)
	got := Run(comm.DV, par)
	var worst float64
	for i := range want {
		if d := math.Abs(got.Ranks[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Fatalf("DV ranks diverge from serial by %g", worst)
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	par := Params{Nodes: 8, Scale: 9, EdgeFactor: 6, MaxIters: 30, KeepRanks: true}
	want := SerialReference(par)
	got := Run(comm.IB, par)
	var worst float64
	for i := range want {
		if d := math.Abs(got.Ranks[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Fatalf("MPI ranks diverge from serial by %g", worst)
	}
}

func TestRankMassConserved(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, MaxIters: 40, KeepRanks: true}
	r := Run(comm.DV, par)
	var sum float64
	for _, v := range r.Ranks {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass = %g, want 1", sum)
	}
	for i, v := range r.Ranks {
		if v <= 0 {
			t.Fatalf("rank[%d] = %g not positive", i, v)
		}
	}
}

func TestConverges(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, Tol: 1e-10, MaxIters: 80}
	r := Run(comm.DV, par)
	if r.Delta > 1e-10 {
		t.Fatalf("did not converge: delta %g after %d iters", r.Delta, r.Iters)
	}
	if r.Iters >= 80 {
		t.Fatalf("hit iteration cap")
	}
}

func TestPowerLawConcentratesRank(t *testing.T) {
	// R-MAT hubs (low vertex ids) should hold disproportionate rank.
	par := Params{Nodes: 4, Scale: 11, EdgeFactor: 8, MaxIters: 40, KeepRanks: true}
	r := Run(comm.DV, par)
	nv := len(r.Ranks)
	var lowQuarter float64
	for _, v := range r.Ranks[:nv/4] {
		lowQuarter += v
	}
	if lowQuarter < 0.4 {
		t.Fatalf("low-id quarter holds only %.2f of rank; hub structure missing", lowQuarter)
	}
}

func TestBothNetsAgree(t *testing.T) {
	par := Params{Nodes: 4, Scale: 9, EdgeFactor: 6, MaxIters: 25, KeepRanks: true}
	a := Run(comm.DV, par)
	b := Run(comm.IB, par)
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("rank[%d] differs between stacks: %g vs %g", i, a.Ranks[i], b.Ranks[i])
		}
	}
	if a.Iters != b.Iters {
		t.Fatalf("iteration counts differ: %d vs %d", a.Iters, b.Iters)
	}
}

func TestDVCompetitive(t *testing.T) {
	par := Params{Nodes: 16, Scale: 12, EdgeFactor: 8, MaxIters: 10, Tol: 0}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	ratio := float64(ib.Elapsed) / float64(dv.Elapsed)
	if ratio < 0.8 {
		t.Fatalf("DV pagerank %.2fx vs MPI; PGAS layer overhead too high", ratio)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, Scale: 9, EdgeFactor: 6, MaxIters: 10}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
