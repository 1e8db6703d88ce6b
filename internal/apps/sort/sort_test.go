package sort

import (
	gosort "sort"
	"testing"

	"repro/internal/comm"
)

// checkSorted validates global sortedness and multiset preservation.
func checkSorted(t *testing.T, par Params, r Result) {
	t.Helper()
	par.defaults() // match the seed the run used
	var all []uint64
	var last uint64
	for node, run := range r.Output {
		for _, k := range run {
			if k < last {
				t.Fatalf("node %d: output not globally sorted", node)
			}
			last = k
			all = append(all, k)
		}
	}
	var want []uint64
	for id := 0; id < par.Nodes; id++ {
		want = append(want, inputKeys(par, id)...)
	}
	gosort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(all) != len(want) {
		t.Fatalf("key count %d, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("key %d mismatch", i)
		}
	}
}

func TestDVSortCorrect(t *testing.T) {
	par := Params{Nodes: 4, KeysPerNode: 2048, KeepKeys: true}
	checkSorted(t, par, Run(comm.DV, par))
}

func TestMPISortCorrect(t *testing.T) {
	par := Params{Nodes: 8, KeysPerNode: 1024, KeepKeys: true}
	checkSorted(t, par, Run(comm.IB, par))
}

func TestSingleNode(t *testing.T) {
	par := Params{Nodes: 1, KeysPerNode: 512, KeepKeys: true}
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		checkSorted(t, par, Run(net, par))
	}
}

// TestRegularisedWorkloadShowsNoDVWin pins the paper's NEGATIVE result:
// a destination-aggregated bulk exchange gives the Data Vortex no edge —
// InfiniBand's higher stream bandwidth makes MPI at least competitive.
func TestRegularisedWorkloadShowsNoDVWin(t *testing.T) {
	par := Params{Nodes: 16, KeysPerNode: 1 << 14}
	dv := Run(comm.DV, par)
	ib := Run(comm.IB, par)
	speedup := float64(ib.Elapsed) / float64(dv.Elapsed)
	if speedup > 1.3 {
		t.Fatalf("DV wins the regular sort by %.2fx; the paper's negative result is lost", speedup)
	}
	if speedup < 0.5 {
		t.Fatalf("DV loses the regular sort by %.2fx; looks uncalibrated", 1/speedup)
	}
}

func TestDeterministic(t *testing.T) {
	par := Params{Nodes: 4, KeysPerNode: 1024}
	if a, b := Run(comm.DV, par), Run(comm.DV, par); a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
