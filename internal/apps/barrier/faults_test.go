package barrier

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

func TestSmokeReliableBarrierUnderFaults(t *testing.T) {
	plan := &faultplan.Plan{Seed: 7, DropProb: 2e-3,
		Window: faultplan.Window{Start: 2 * sim.Microsecond}}
	r := RunOpts(DVReliable, 8, 20, Opts{Platform: cluster.Platform{Faults: plan}})
	if r.Completed != r.Iters {
		t.Fatalf("reliable barrier completed %d/%d iterations", r.Completed, r.Iters)
	}
	if r.Errors != 0 {
		t.Fatalf("delivery errors: %d", r.Errors)
	}
	t.Logf("latency %v retrans %d dropped %d",
		r.Latency, r.Report.Reliability.Retransmits, r.Report.Dropped)
	if r.Report.Reliability.Retransmits == 0 {
		t.Error("expected retransmits under faults")
	}
}

func TestSmokeFastBarrierWedgesUnderFaults(t *testing.T) {
	// Heavy loss: the all-to-all barrier loses decrements, so bounded waits
	// must expire and the run must terminate with partial progress.
	plan := &faultplan.Plan{Seed: 3, DropProb: 5e-3,
		Window: faultplan.Window{Start: 2 * sim.Microsecond}}
	r := RunOpts(DVFastBarrier, 8, 50, Opts{Platform: cluster.Platform{Faults: plan}, WaitTimeout: 30 * sim.Microsecond})
	t.Logf("completed %d/%d dropped %d", r.Completed, r.Iters, r.Report.Dropped)
	if r.Completed == r.Iters {
		t.Skip("no decrement happened to be dropped at this seed/rate")
	}
	if r.Report.Dropped == 0 {
		t.Error("wedged without any recorded drop")
	}
}

func TestSmokeIntrinsicBarrierWedgesUnderFaults(t *testing.T) {
	// The intrinsic barrier has no timeout: a lost tree notification parks
	// its nodes forever and the kernel drains. The run must still terminate
	// and report partial progress via Completed.
	plan := &faultplan.Plan{Seed: 2, DropProb: 2e-2,
		Window: faultplan.Window{Start: 2 * sim.Microsecond}}
	r := RunOpts(DVIntrinsic, 8, 50, Opts{Platform: cluster.Platform{Faults: plan}})
	t.Logf("completed %d/%d dropped %d", r.Completed, r.Iters, r.Report.Dropped)
	if r.Completed == r.Iters && r.Report.Dropped > 0 {
		t.Skip("drops missed the barrier packets at this seed/rate")
	}
	if r.Completed == r.Iters {
		t.Skip("no drop landed in the window")
	}
}

func TestSmokeCleanReliableBarrier(t *testing.T) {
	r := RunOpts(DVReliable, 8, 20, Opts{})
	if r.Completed != r.Iters || r.Errors != 0 {
		t.Fatalf("clean reliable barrier: completed %d/%d errors %d", r.Completed, r.Iters, r.Errors)
	}
	if r.Report.Reliability.Retransmits != 0 {
		t.Errorf("clean run retransmitted %d", r.Report.Reliability.Retransmits)
	}
	intr := Run(DVIntrinsic, 8, 20)
	t.Logf("reliable %v vs intrinsic %v", r.Latency, intr.Latency)
}
