// End-to-end integration tests: every workload runs over BOTH switch
// engines (the calibrated fast model and the cycle-accurate core) and must
// produce bit-identical answers — only the virtual clock may differ. This
// pins the fast model's functional equivalence on real applications, not
// just micro-traffic.
package repro

import (
	"testing"

	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/snap"
	sortapp "repro/internal/apps/sort"
	"repro/internal/apps/spmv"
	"repro/internal/apps/vorticity"
	"repro/internal/comm"
)

func TestGUPSFastVsCycleAccurate(t *testing.T) {
	par := gups.Params{Nodes: 4, TableWordsNode: 1 << 8, UpdatesPerNode: 512, KeepTables: true}
	fast := gups.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := gups.Run(comm.DV, par)
	for n := range fast.Tables {
		for i := range fast.Tables[n] {
			if fast.Tables[n][i] != cyc.Tables[n][i] {
				t.Fatalf("table[%d][%d] differs between engines", n, i)
			}
		}
	}
	if fast.Elapsed <= 0 || cyc.Elapsed <= 0 {
		t.Fatal("missing timings")
	}
}

func TestFFTFastVsCycleAccurate(t *testing.T) {
	par := fft.Params{Nodes: 4, LogN: 10, KeepResult: true}
	fast := fft.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := fft.Run(comm.DV, par)
	for i := range fast.Spectrum {
		if fast.Spectrum[i] != cyc.Spectrum[i] {
			t.Fatalf("spectrum[%d] differs between engines", i)
		}
	}
}

func TestBFSFastVsCycleAccurate(t *testing.T) {
	par := bfs.Params{Nodes: 4, Scale: 9, EdgeFactor: 6, NRoots: 2, KeepParents: true}
	fast := bfs.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := bfs.Run(comm.DV, par)
	for s := range fast.Parents {
		for v := range fast.Parents[s] {
			// Parent trees may differ legitimately (different arrival
			// orders race for the same vertex), but visited sets must match.
			if (fast.Parents[s][v] == -1) != (cyc.Parents[s][v] == -1) {
				t.Fatalf("search %d: vertex %d visited under one engine only", s, v)
			}
		}
	}
}

func TestHeatFastVsCycleAccurate(t *testing.T) {
	par := heat.Params{Nodes: 4, N: 8, Steps: 4, KeepField: true}
	fast := heat.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := heat.Run(comm.DV, par)
	for i := range fast.Field {
		if fast.Field[i] != cyc.Field[i] {
			t.Fatalf("field[%d] differs between engines", i)
		}
	}
}

func TestVorticityFastVsCycleAccurate(t *testing.T) {
	par := vorticity.Params{Nodes: 4, N: 16, Steps: 2, KeepField: true}
	fast := vorticity.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := vorticity.Run(comm.DV, par)
	for i := range fast.Field {
		if fast.Field[i] != cyc.Field[i] {
			t.Fatalf("field[%d] differs between engines", i)
		}
	}
}

func TestSNAPFastVsCycleAccurate(t *testing.T) {
	par := snap.Params{Nodes: 4, NX: 8, NY: 8, NZ: 8, MaxIters: 3, KeepFlux: true}
	fast := snap.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := snap.Run(comm.DV, par)
	for i := range fast.Flux {
		if fast.Flux[i] != cyc.Flux[i] {
			t.Fatalf("flux[%d] differs between engines", i)
		}
	}
}

func TestPageRankFastVsCycleAccurate(t *testing.T) {
	par := pagerank.Params{Nodes: 4, Scale: 8, EdgeFactor: 4, MaxIters: 5, KeepRanks: true}
	fast := pagerank.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := pagerank.Run(comm.DV, par)
	for i := range fast.Ranks {
		if fast.Ranks[i] != cyc.Ranks[i] {
			t.Fatalf("rank[%d] differs between engines", i)
		}
	}
}

func TestSpMVFastVsCycleAccurate(t *testing.T) {
	par := spmv.Params{Nodes: 4, Scale: 8, EdgeFactor: 4, Iters: 2, KeepVector: true}
	fast := spmv.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := spmv.Run(comm.DV, par)
	for i := range fast.Vector {
		if fast.Vector[i] != cyc.Vector[i] {
			t.Fatalf("vector[%d] differs between engines", i)
		}
	}
}

func TestSortFastVsCycleAccurate(t *testing.T) {
	par := sortapp.Params{Nodes: 4, KeysPerNode: 512, KeepKeys: true}
	fast := sortapp.Run(comm.DV, par)
	par.CycleAccurate = true
	cyc := sortapp.Run(comm.DV, par)
	for n := range fast.Output {
		if len(fast.Output[n]) != len(cyc.Output[n]) {
			t.Fatalf("node %d run length differs between engines", n)
		}
		for i := range fast.Output[n] {
			if fast.Output[n][i] != cyc.Output[n][i] {
				t.Fatalf("key [%d][%d] differs between engines", n, i)
			}
		}
	}
}
