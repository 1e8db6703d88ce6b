// Golden-diff guarantee for the attribution layer: running any registered
// workload with flow tracing enabled must leave every observable result —
// Summary and the full cluster telemetry Report — bit-identical to the
// untraced run. Attribution is pure observation; this test is the proof.

package apprt_test

import (
	"reflect"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/obs/attr"
)

// runAttrPair executes the same spec with and without flow tracing and
// returns both summaries.
func runAttrPair(t *testing.T, a apprt.App, spec apprt.RunSpec) (plain, traced apprt.Summary) {
	t.Helper()
	plain, err := a.Run(spec)
	if err != nil {
		t.Fatalf("untraced run failed: %v", err)
	}
	spec.Attr = &attr.Config{Sample: 1}
	traced, err = a.Run(spec)
	if err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	return plain, traced
}

func assertAttrGolden(t *testing.T, plain, traced apprt.Summary) {
	t.Helper()
	sum := traced.Cluster.Attr
	if sum == nil {
		t.Fatal("traced run produced no attr.Summary")
	}
	if sum.Begun == 0 {
		t.Error("traced run recorded no flows")
	}
	if !summariesEqual(plain, traced) {
		t.Errorf("attribution changed the summary:\n  off: %+v\n  on:  %+v", plain, traced)
	}
	// The telemetry reports must match field for field once the one field
	// only the traced run can have is cleared.
	tr := *traced.Cluster
	tr.Attr = nil
	if !reflect.DeepEqual(*plain.Cluster, tr) {
		t.Errorf("attribution changed the cluster report:\n  off: %+v\n  on:  %+v", *plain.Cluster, tr)
	}
}

// TestAttrGoldenDiff runs every registered app on both backends with flow
// tracing on and off: identical results, flows recorded.
func TestAttrGoldenDiff(t *testing.T) {
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			a, net := a, net
			t.Run(a.Name+"/"+net.String(), func(t *testing.T) {
				if testing.Short() && net != comm.DV {
					t.Skip("IB golden diff in -short mode")
				}
				plain, traced := runAttrPair(t, a, confSpec(a, net, false))
				assertAttrGolden(t, plain, traced)
			})
		}
	}
}

// TestAttrGoldenDiffCycleAccurate repeats the golden diff through the
// cycle-level switch core — where the heatmap hook rides the deflection
// branches of the hand-inlined move loops — for a representative irregular
// workload on both core variants.
func TestAttrGoldenDiffCycleAccurate(t *testing.T) {
	a, ok := apprt.Get("gups")
	if !ok {
		t.Fatal("gups not registered")
	}
	for _, dense := range []bool{false, true} {
		dense := dense
		name := "sparse"
		if dense {
			name = "dense"
		}
		t.Run(name, func(t *testing.T) {
			spec := confSpec(a, comm.DV, false)
			spec.CycleAccurate = true
			spec.Platform = cluster.WithOracles(spec.Platform, dense, false)
			plain, traced := runAttrPair(t, a, spec)
			assertAttrGolden(t, plain, traced)
			if traced.Cluster.Attr.Heat == nil {
				t.Error("cycle-accurate run produced no deflection heatmap")
			}
		})
	}
}

// TestAttrGoldenDiffUnderFaults repeats the golden diff for the
// reliable-capable apps under packet loss: dropped packets leave flows open
// (counted Lost), retransmitted traffic carries epochs, and tracing must
// still not perturb the run.
func TestAttrGoldenDiffUnderFaults(t *testing.T) {
	for _, a := range apprt.Apps() {
		if !a.Reliable {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			plain, traced := runAttrPair(t, a, confSpec(a, comm.DV, true))
			assertAttrGolden(t, plain, traced)
		})
	}
}
