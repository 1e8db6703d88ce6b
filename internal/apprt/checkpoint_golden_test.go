// Golden guarantee for managed runs: for every registered workload, on both
// backends, clean and under fault plans, with the invariant layer live on
// both sides —
//
//	(a) a managed run (a witness at every boundary under the stepped pump)
//	    produces results identical to the plain run, and
//	(b) a repeat of it takes the same path: the same events, queue,
//	    processes and RNG streams at every boundary (cluster.Audit, as
//	    dvcheck runs it).
//
// Identity is checked with reflect.DeepEqual over the full Summary including
// the cluster telemetry Report, which is stronger than comparing the
// headline numbers: every fabric counter, VIC stat, reliability counter, and
// invariant-check tally must match.
package apprt_test

import (
	"reflect"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// ckptClass is one fault-plan family of the matrix (a subset of dvcheck's
// classes: clean, packet loss, and an InfiniBand uplink outage).
type ckptClass struct {
	name string
	plan func(seed uint64) *faultplan.Plan
}

var ckptClasses = []ckptClass{
	{"none", func(uint64) *faultplan.Plan { return nil }},
	{"drop", func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, DropProb: 1e-3}
	}},
	{"flap", func(s uint64) *faultplan.Plan {
		return &faultplan.Plan{Seed: s, IBFlaps: []faultplan.LinkFlap{
			{Leaf: int(s % 2), Spine: int(s % 2), Start: 3 * sim.Microsecond, Down: 5 * sim.Microsecond},
		}}
	}},
}

func ckptSpec(a apprt.App, net comm.Net, fc ckptClass) apprt.RunSpec {
	const seed = 7
	spec := apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: seed, Platform: cluster.Platform{Check: check.All()}}
	if fc.name != "none" {
		spec.Reliable = true
		spec.WaitTimeout = 500 * sim.Microsecond
		spec.Faults = fc.plan(seed)
	}
	return spec
}

func TestCheckpointGoldenMatrix(t *testing.T) {
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			for _, fc := range ckptClasses {
				if fc.name != "none" && !a.Reliable {
					continue
				}
				a, net, fc := a, net, fc
				t.Run(a.Name+"/"+net.String()+"/"+fc.name, func(t *testing.T) {
					if testing.Short() && (net != comm.DV || fc.name == "flap") {
						t.Skip("matrix reduced in -short mode")
					}
					base, err := a.Run(ckptSpec(a, net, fc))
					if err != nil {
						t.Fatalf("straight run: %v", err)
					}
					if res := base.Cluster.Checks; res == nil || !res.Ok() {
						t.Fatalf("straight-run invariants: %v", res)
					}

					every := max(base.Cluster.Elapsed/4, sim.Nanosecond)
					boundaries, err := cluster.Audit(every, func(cp *cluster.Checkpoint) (any, error) {
						spec := ckptSpec(a, net, fc)
						spec.Checkpoint = cp
						managed, err := a.Run(spec)
						if err == nil && cp.Err == nil && !reflect.DeepEqual(base, managed) {
							t.Errorf("managed run result differs from straight run:\n straight: %+v\n managed:  %+v",
								base, managed)
						}
						return managed, err
					})
					if err != nil {
						t.Fatalf("determinism audit: %v", err)
					}
					if len(boundaries) < 3 {
						t.Fatalf("audit compared %d boundaries on a grid of a quarter of the run", len(boundaries))
					}
				})
			}
		}
	}
}
