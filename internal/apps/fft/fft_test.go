package fft

import (
	"math/cmplx"
	"testing"

	"repro/internal/comm"
)

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDVMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, LogN: 12, KeepResult: true}
	want := SerialReference(par)
	got := Run(comm.DV, par)
	if len(got.Spectrum) != len(want) {
		t.Fatalf("spectrum length %d, want %d", len(got.Spectrum), len(want))
	}
	if d := maxDiff(got.Spectrum, want); d > 1e-8*float64(got.N) {
		t.Fatalf("DV spectrum max diff %g", d)
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	par := Params{Nodes: 4, LogN: 12, KeepResult: true}
	want := SerialReference(par)
	got := Run(comm.IB, par)
	if d := maxDiff(got.Spectrum, want); d > 1e-8*float64(got.N) {
		t.Fatalf("MPI spectrum max diff %g", d)
	}
}

func TestOddLogN(t *testing.T) {
	par := Params{Nodes: 2, LogN: 11, KeepResult: true}
	want := SerialReference(par)
	got := Run(comm.DV, par)
	if d := maxDiff(got.Spectrum, want); d > 1e-8*float64(got.N) {
		t.Fatalf("odd-logN spectrum max diff %g", d)
	}
}

func TestSingleNode(t *testing.T) {
	par := Params{Nodes: 1, LogN: 10, KeepResult: true}
	want := SerialReference(par)
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		got := Run(net, par)
		if d := maxDiff(got.Spectrum, want); d > 1e-8*float64(got.N) {
			t.Fatalf("%v single node max diff %g", net, d)
		}
	}
}

// TestFigure7Shape pins the scaling story: DV outperforms MPI and the gap
// widens with node count.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	par := func(n int) Params { return Params{Nodes: n, LogN: 18} }
	dv4, ib4 := Run(comm.DV, par(4)), Run(comm.IB, par(4))
	dv16, ib16 := Run(comm.DV, par(16)), Run(comm.IB, par(16))
	if dv16.GFLOPS() <= ib16.GFLOPS() {
		t.Errorf("at 16 nodes DV (%0.2f) should beat IB (%0.2f) GFLOPS",
			dv16.GFLOPS(), ib16.GFLOPS())
	}
	gap4 := dv4.GFLOPS() / ib4.GFLOPS()
	gap16 := dv16.GFLOPS() / ib16.GFLOPS()
	if gap16 <= gap4*0.95 {
		t.Errorf("DV/IB gap should widen with nodes: %0.2fx @4 vs %0.2fx @16", gap4, gap16)
	}
	// Throughput must grow with node count for both.
	if dv16.GFLOPS() < dv4.GFLOPS() || ib16.GFLOPS() < ib4.GFLOPS() {
		t.Errorf("aggregate GFLOPS should grow: DV %0.2f→%0.2f, IB %0.2f→%0.2f",
			dv4.GFLOPS(), dv16.GFLOPS(), ib4.GFLOPS(), ib16.GFLOPS())
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, LogN: 12}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestGeometrySweep: sizes and node counts crossing the n1/n2 split.
func TestGeometrySweep(t *testing.T) {
	for _, c := range []struct{ nodes, logN int }{
		{2, 8}, {2, 9}, {4, 10}, {4, 13}, {8, 12}, {16, 12},
	} {
		par := Params{Nodes: c.nodes, LogN: c.logN, KeepResult: true}
		want := SerialReference(par)
		for _, net := range []comm.Net{comm.DV, comm.IB} {
			got := Run(net, par)
			if d := maxDiff(got.Spectrum, want); d > 1e-8*float64(got.N) {
				t.Errorf("nodes=%d logN=%d net=%v: max diff %g", c.nodes, c.logN, net, d)
			}
		}
	}
}

func TestIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(comm.DV, Params{Nodes: 32, LogN: 8}) // n1 = 16 < 32 nodes
}
