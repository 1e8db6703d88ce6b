package heat

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

func TestSmokeReliableUnderFaults(t *testing.T) {
	plan := &faultplan.Plan{Seed: 7, DropProb: 1e-3, CorruptProb: 2.5e-4,
		Window: faultplan.Window{Start: 5 * sim.Microsecond}}
	par := Params{Nodes: 4, N: 16, Steps: 8, KeepField: true,
		Platform: cluster.Platform{Faults: plan}, Reliable: true}
	r := Run(comm.DV, par)
	if err := MaxErr(par, r.Field); err > 1e-10 {
		t.Fatalf("reliable run under faults: max error %g, want exact", err)
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
	// Heavier loss so the bounded halo wait observably times out within the
	// small smoke grid.
	plan := &faultplan.Plan{Seed: 7, DropProb: 5e-3,
		Window: faultplan.Window{Start: 2 * sim.Microsecond}}
	par := Params{Nodes: 4, N: 16, Steps: 8, KeepField: true,
		Platform: cluster.Platform{Faults: plan}, WaitTimeout: 50 * sim.Microsecond}
	r := Run(comm.DV, par)
	t.Logf("elapsed %v timeouts %d dropped %d maxerr %g",
		r.Elapsed, r.Timeouts, r.Report.Dropped, MaxErr(par, r.Field))
	if r.Timeouts == 0 {
		t.Error("expected halo-wait timeouts on unprotected path under loss")
	}
}

func TestSmokeCleanReliableStillExact(t *testing.T) {
	par := Params{Nodes: 4, N: 16, Steps: 8, KeepField: true}
	clean := Run(comm.DV, par)
	par2 := par
	par2.Reliable = true
	rel := Run(comm.DV, par2)
	if err := MaxErr(par2, rel.Field); err > 1e-10 {
		t.Fatalf("clean reliable run: max error %g", err)
	}
	if rel.Report.Reliability.Retransmits != 0 {
		t.Errorf("clean reliable run retransmitted %d", rel.Report.Reliability.Retransmits)
	}
	t.Logf("clean %v reliable %v (%.2fx)", clean.Elapsed, rel.Elapsed,
		float64(rel.Elapsed)/float64(clean.Elapsed))
}
