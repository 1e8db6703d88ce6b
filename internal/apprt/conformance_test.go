// Cross-app conformance suite: every registered workload must run on both
// backends through the harness, produce a deterministic Summary across
// repeated runs (also under -race), and — for the workloads that support
// reliable delivery — survive fault injection. The suite iterates the
// registry, so a newly added app is covered with no test changes.

package apprt_test

import (
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// confSpec builds the spec a conformance run uses: the app's reference size
// with a pinned seed; withFaults additionally injects packet loss and turns
// on the reliable-delivery layer with a bounded wait.
func confSpec(a apprt.App, net comm.Net, withFaults bool) apprt.RunSpec {
	spec := apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: 7}
	if withFaults {
		spec.Reliable = true
		spec.WaitTimeout = 500 * sim.Microsecond
		spec.Faults = &faultplan.Plan{Seed: 7, DropProb: 1e-4,
			Window: faultplan.Window{Start: 2 * sim.Microsecond}}
	}
	return spec
}

// summariesEqual compares two summaries field by field, ignoring the Cluster
// report (its telemetry is compared by the golden tests instead).
func summariesEqual(a, b apprt.Summary) bool {
	return a.App == b.App && a.Net == b.Net && a.Nodes == b.Nodes &&
		a.Elapsed == b.Elapsed && a.Check == b.Check &&
		a.Errors == b.Errors && a.Lost == b.Lost
}

func TestConformanceEveryAppBothBackends(t *testing.T) {
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			a, net := a, net
			t.Run(a.Name+"/"+net.String(), func(t *testing.T) {
				sum, err := a.Run(confSpec(a, net, false))
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if sum.App != a.Name {
					t.Errorf("summary names app %q, want %q", sum.App, a.Name)
				}
				if sum.Net != net {
					t.Errorf("summary names net %v, want %v", sum.Net, net)
				}
				if sum.Elapsed <= 0 {
					t.Errorf("elapsed %v, want > 0", sum.Elapsed)
				}
				if sum.Check == "" {
					t.Error("empty check string")
				}
				if sum.Errors != 0 {
					t.Errorf("%d errors on a healthy run: %s", sum.Errors, sum.Check)
				}
			})
		}
	}
}

func TestConformanceDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated full-registry runs in -short mode")
	}
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			a, net := a, net
			t.Run(a.Name+"/"+net.String(), func(t *testing.T) {
				first, err := a.Run(confSpec(a, net, false))
				if err != nil {
					t.Fatalf("first run failed: %v", err)
				}
				second, err := a.Run(confSpec(a, net, false))
				if err != nil {
					t.Fatalf("second run failed: %v", err)
				}
				if !summariesEqual(first, second) {
					t.Errorf("summaries differ across runs:\n  first:  %+v\n  second: %+v",
						first, second)
				}
			})
		}
	}
}

func TestConformanceReliableUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection runs in -short mode")
	}
	for _, a := range apprt.Apps() {
		if !a.Reliable {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			first, err := a.Run(confSpec(a, comm.DV, true))
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if first.Elapsed <= 0 {
				t.Errorf("elapsed %v, want > 0", first.Elapsed)
			}
			second, err := a.Run(confSpec(a, comm.DV, true))
			if err != nil {
				t.Fatalf("second faulted run failed: %v", err)
			}
			if !summariesEqual(first, second) {
				t.Errorf("faulted summaries differ across runs:\n  first:  %+v\n  second: %+v",
					first, second)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"barrier", "bfs", "fft", "gups", "heat", "pagerank",
		"pingpong", "snap", "sort", "spmv", "vorticity"}
	var got []string
	for _, a := range apprt.Apps() {
		got = append(got, a.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("registry has %d apps %v, want %d", len(got), got, len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], name)
		}
	}
}
