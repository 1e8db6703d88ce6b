// Lockstep differential guarantee for the batched VIC↔switch boundary: for
// every registered workload, on both backends, through both switch engines,
// and with a faultplan drop/corrupt window active, the batched inject/eject
// pipeline must produce a Summary and full cluster telemetry Report
// bit-identical to the legacy one-kernel-event-per-packet scalar path. The
// scalar path survives in the tree exactly so this test has an executable
// reference to pin the batched path against; it also runs under -race in CI,
// covering the pooled payload recycling.

package apprt_test

import (
	"reflect"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// runBoundaryPair executes the same spec over the batched boundary (the
// default) and the scalar reference boundary.
func runBoundaryPair(t *testing.T, a apprt.App, spec apprt.RunSpec) (batched, scalar apprt.Summary) {
	t.Helper()
	batched, err := a.Run(spec)
	if err != nil {
		t.Fatalf("batched run failed: %v", err)
	}
	spec.Platform = cluster.WithOracles(spec.Platform, false, true)
	scalar, err = a.Run(spec)
	if err != nil {
		t.Fatalf("scalar run failed: %v", err)
	}
	return batched, scalar
}

func assertBoundaryIdentical(t *testing.T, batched, scalar apprt.Summary) {
	t.Helper()
	if !summariesEqual(batched, scalar) {
		t.Errorf("batched boundary changed the summary:\n  scalar:  %+v\n  batched: %+v", scalar, batched)
	}
	if !reflect.DeepEqual(*scalar.Cluster, *batched.Cluster) {
		t.Errorf("batched boundary changed the cluster report:\n  scalar:  %+v\n  batched: %+v",
			*scalar.Cluster, *batched.Cluster)
	}
}

// TestBoundaryDiffLockstep runs every registered app on both backends over
// both boundary implementations: results must be bit-identical.
func TestBoundaryDiffLockstep(t *testing.T) {
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			a, net := a, net
			t.Run(a.Name+"/"+net.String(), func(t *testing.T) {
				if testing.Short() && net != comm.DV {
					t.Skip("IB boundary diff in -short mode")
				}
				batched, scalar := runBoundaryPair(t, a, confSpec(a, net, false))
				assertBoundaryIdentical(t, batched, scalar)
			})
		}
	}
}

// TestBoundaryDiffCycleAccurate repeats the lockstep diff through the
// cycle-level switch core (Engine.InjectBatch + pump path) for a
// representative irregular workload.
func TestBoundaryDiffCycleAccurate(t *testing.T) {
	a, ok := apprt.Get("gups")
	if !ok {
		t.Fatal("gups not registered")
	}
	spec := confSpec(a, comm.DV, false)
	spec.CycleAccurate = true
	batched, scalar := runBoundaryPair(t, a, spec)
	assertBoundaryIdentical(t, batched, scalar)
}

// TestBoundaryDiffUnderFaults repeats the lockstep diff for the
// reliable-capable apps with a drop+corrupt window active: retransmission
// traffic exercises the pooled inject batches and the receive trains under
// irregular, failure-driven schedules.
func TestBoundaryDiffUnderFaults(t *testing.T) {
	for _, a := range apprt.Apps() {
		if !a.Reliable {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			spec := confSpec(a, comm.DV, true)
			spec.Faults = &faultplan.Plan{Seed: 7, DropProb: 1e-4, CorruptProb: 1e-4,
				Window: faultplan.Window{Start: 2 * sim.Microsecond, End: 400 * sim.Microsecond}}
			batched, scalar := runBoundaryPair(t, a, spec)
			assertBoundaryIdentical(t, batched, scalar)
		})
	}
}
