package gups

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

func verifyRun(t *testing.T, par Params, r Result) int {
	t.Helper()
	return Verify(par, r)
}

func TestSmokeReliableUnderFaults(t *testing.T) {
	plan := &faultplan.Plan{Seed: 7, DropProb: 1e-3, CorruptProb: 2.5e-4,
		Window: faultplan.Window{Start: 5 * sim.Microsecond}}
	par := Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1,
		KeepTables: true, Platform: cluster.Platform{Faults: plan}, Reliable: true}
	r := Run(comm.DV, par)
	if bad := verifyRun(t, par, r); bad != 0 {
		t.Fatalf("reliable run has %d wrong words", bad)
	}
	if r.Errors != 0 {
		t.Fatalf("delivery errors: %d", r.Errors)
	}
	t.Logf("elapsed %v retrans %d dropped %d", r.Elapsed, r.Report.Reliability.Retransmits, r.Report.Dropped)
	if r.Report.Reliability.Retransmits == 0 {
		t.Error("expected retransmits under faults")
	}
}

func TestSmokeUnprotectedUnderFaults(t *testing.T) {
	plan := &faultplan.Plan{Seed: 7, DropProb: 1e-3,
		Window: faultplan.Window{Start: 5 * sim.Microsecond}}
	par := Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1,
		KeepTables: true, Platform: cluster.Platform{Faults: plan}, WaitTimeout: 2 * sim.Millisecond}
	r := Run(comm.DV, par)
	t.Logf("elapsed %v lost %d dropped %d", r.Elapsed, r.Lost, r.Report.Dropped)
	if r.Lost == 0 {
		t.Error("expected lost updates on unprotected path")
	}
}

func TestSmokeCleanStillExact(t *testing.T) {
	par := Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 10, Seed: 1, KeepTables: true}
	r := Run(comm.DV, par)
	if bad := verifyRun(t, par, r); bad != 0 {
		t.Fatalf("clean run has %d wrong words", bad)
	}
	par2 := par
	par2.Reliable = true
	r2 := Run(comm.DV, par2)
	if bad := verifyRun(t, par2, r2); bad != 0 {
		t.Fatalf("clean reliable run has %d wrong words", bad)
	}
	if r2.Report.Reliability.Retransmits != 0 {
		t.Errorf("clean reliable run retransmitted %d", r2.Report.Reliability.Retransmits)
	}
	t.Logf("clean %v reliable %v (%.2fx)", r.Elapsed, r2.Elapsed, float64(r2.Elapsed)/float64(r.Elapsed))
}
