package bfs

import (
	"reflect"
	"testing"

	"repro/internal/comm"
)

// validate runs the full Graph500-style validation of one search's parent
// array against the reference (package implementation in validate.go).
func validate(t *testing.T, par Params, root int64, parent []int64, label string) {
	t.Helper()
	if err := ValidateParents(par, root, parent); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestDVSearchValid(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, NRoots: 3, KeepParents: true}
	r := Run(comm.DV, par)
	roots := ChooseRoots(par)
	for i, root := range roots {
		validate(t, par, root, r.Parents[i], "DV")
	}
}

func TestMPISearchValid(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, NRoots: 3, KeepParents: true}
	r := Run(comm.IB, par)
	roots := ChooseRoots(par)
	for i, root := range roots {
		validate(t, par, root, r.Parents[i], "MPI")
	}
}

func TestNonPowerOfTwoNodes(t *testing.T) {
	// 2^10 vertices over 4 nodes only; try 8 nodes with scale 12.
	par := Params{Nodes: 8, Scale: 12, EdgeFactor: 4, NRoots: 1, KeepParents: true}
	r := Run(comm.DV, par)
	validate(t, par, ChooseRoots(par)[0], r.Parents[0], "DV n=8")
}

func TestSearchStats(t *testing.T) {
	par := Params{Nodes: 4, Scale: 10, EdgeFactor: 8, NRoots: 2}
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		r := Run(net, par)
		if len(r.Searches) != 2 {
			t.Fatalf("%v: %d searches", net, len(r.Searches))
		}
		for _, s := range r.Searches {
			if s.Edges <= 0 || s.Elapsed <= 0 || s.Visited <= 0 {
				t.Errorf("%v: bad search stats %+v", net, s)
			}
		}
		if r.HarmonicMeanTEPS() <= 0 {
			t.Errorf("%v: bad harmonic mean", net)
		}
	}
}

// TestRepeatedRunsIdentical runs each stack twice in one process, at the
// -small size of Figure 8, on fresh clusters: searches, parent arrays and the
// cluster Report repeat. searchMPI's send blocks and mpi's recycled requests,
// envelopes and receive buffers all live in one run's world.
func TestRepeatedRunsIdentical(t *testing.T) {
	par := Params{Nodes: 8, Scale: 12, EdgeFactor: 8, NRoots: 2, KeepParents: true}
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		a, b := Run(net, par), Run(net, par)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two runs in one process differ:\n%+v %+v\n%+v %+v", net, a.Searches, a.Report, b.Searches, b.Report)
		}
	}
}

// TestFigure8Shape pins the Graph500 scaling story: DV leads MPI and the gap
// widens with node count.
func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	par := func(n int) Params {
		return Params{Nodes: n, Scale: 14, EdgeFactor: 8, NRoots: 2}
	}
	dv4, ib4 := Run(comm.DV, par(4)), Run(comm.IB, par(4))
	dv16, ib16 := Run(comm.DV, par(16)), Run(comm.IB, par(16))
	if dv16.HarmonicMeanTEPS() <= ib16.HarmonicMeanTEPS() {
		t.Errorf("at 16 nodes DV (%0.0f) should beat IB (%0.0f) TEPS",
			dv16.HarmonicMeanTEPS(), ib16.HarmonicMeanTEPS())
	}
	gap4 := dv4.HarmonicMeanTEPS() / ib4.HarmonicMeanTEPS()
	gap16 := dv16.HarmonicMeanTEPS() / ib16.HarmonicMeanTEPS()
	if gap16 <= gap4*0.9 {
		t.Errorf("DV/IB gap should widen: %0.2fx @4 vs %0.2fx @16", gap4, gap16)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for i := int64(0); i < 100; i++ {
		u1, v1 := GenerateEdge(7, 12, i)
		u2, v2 := GenerateEdge(7, 12, i)
		if u1 != u2 || v1 != v2 {
			t.Fatal("generator not deterministic")
		}
		if u1 < 0 || u1 >= 4096 || v1 < 0 || v1 >= 4096 {
			t.Fatalf("edge out of range: %d %d", u1, v1)
		}
	}
}

func TestGeneratorPowerLaw(t *testing.T) {
	// R-MAT with A=0.57 skews mass toward low vertex ids.
	par := Params{Scale: 12, EdgeFactor: 16, Seed: 3}
	nv := int64(1) << par.Scale
	ne := nv * int64(par.EdgeFactor)
	lowHalf := 0
	for i := int64(0); i < ne; i++ {
		u, _ := GenerateEdge(par.Seed, par.Scale, i)
		if u < nv/2 {
			lowHalf++
		}
	}
	frac := float64(lowHalf) / float64(ne)
	if frac < 0.6 {
		t.Fatalf("low-half fraction %0.2f; R-MAT skew missing", frac)
	}
}
