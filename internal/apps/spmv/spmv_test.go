package spmv

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

func TestDVMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, Scale: 9, EdgeFactor: 6, Iters: 4, KeepVector: true}
	want := SerialReference(par)
	got := Run(comm.DV, par)
	if d := maxAbsDiff(got.Vector, want); d > 1e-11 {
		t.Fatalf("DV vector diverges from serial by %g", d)
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	par := Params{Nodes: 8, Scale: 9, EdgeFactor: 6, Iters: 4, KeepVector: true}
	want := SerialReference(par)
	got := Run(comm.IB, par)
	if d := maxAbsDiff(got.Vector, want); d > 1e-11 {
		t.Fatalf("MPI vector diverges from serial by %g", d)
	}
}

func TestSingleNode(t *testing.T) {
	par := Params{Nodes: 1, Scale: 8, EdgeFactor: 6, Iters: 3, KeepVector: true}
	want := SerialReference(par)
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		got := Run(net, par)
		if d := maxAbsDiff(got.Vector, want); d > 1e-12 {
			t.Fatalf("%v single node diff %g", net, d)
		}
	}
}

func TestGhostCountsReported(t *testing.T) {
	r := Run(comm.DV, Params{Nodes: 4, Scale: 10, EdgeFactor: 8, Iters: 1})
	if r.GhostWords <= 0 {
		t.Fatalf("ghost words %d; power-law rows must reference remote columns", r.GhostWords)
	}
}

func TestVectorNormalised(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, Iters: 5, KeepVector: true}
	r := Run(comm.DV, par)
	var max float64
	for _, v := range r.Vector {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Fatalf("max |x| = %g after normalisation", max)
	}
}

// TestDVWinsFineGrainedGather: the query-gather should beat the owner-push
// exchange at scale (the fabric's fine-grained-read sweet spot).
func TestDVWinsFineGrainedGather(t *testing.T) {
	par := Params{Nodes: 16, Scale: 12, EdgeFactor: 4, Iters: 3}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	speedup := float64(ib.Elapsed) / float64(dv.Elapsed)
	if speedup < 1.0 {
		t.Fatalf("DV spmv %.2fx vs MPI; query gathers should not lose", speedup)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, Scale: 9, EdgeFactor: 6, Iters: 2}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
