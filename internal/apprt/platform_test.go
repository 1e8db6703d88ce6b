// The platform is declared once (cluster.Platform) and handed through whole,
// so a knob set on a RunSpec must reach cluster.Run from every registered app,
// and a spec no cluster can be built from must come back as a typed error
// before any cluster exists.

package apprt_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// TestSpecReachesEveryApp sets four knobs whose effect is visible in the
// cluster Report and requires every app to show all four. Heat (the deflection
// census) exists only on the cycle-accurate engine, so it pins CycleAccurate.
func TestSpecReachesEveryApp(t *testing.T) {
	for _, a := range apprt.Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			spec := apprt.RunSpec{Net: comm.DV, Nodes: a.RefNodes, Seed: 7}
			spec.CycleAccurate = true
			spec.Obs = &obs.Config{Every: 5 * sim.Microsecond}
			spec.Attr = &attr.Config{Sample: 1}
			spec.Check = check.All()
			sum, err := a.Run(spec)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			rep := sum.Cluster
			if rep.Metrics == nil {
				t.Error("spec.Obs was dropped: no Metrics")
			}
			if rep.Checks == nil {
				t.Error("spec.Check was dropped: no Checks")
			}
			if rep.Attr == nil {
				t.Fatal("spec.Attr was dropped: no Attr")
			}
			if rep.Attr.Heat == nil {
				t.Error("spec.CycleAccurate was dropped: no deflection heat census")
			}
		})
	}
}

// TestOnePlatformType pins the structure that makes the above hold: RunSpec
// and cluster.Config embed the very same type, so Execute copies it whole —
// the unexported oracle selectors (cluster.WithOracles) included. The knob
// count is pinned too: each one multiplies the configurations the goldens
// cover, so adding one means editing this number on purpose.
func TestOnePlatformType(t *testing.T) {
	want := reflect.TypeOf(cluster.Platform{})
	knobs := 0
	for i := 0; i < want.NumField(); i++ {
		if want.Field(i).IsExported() {
			knobs++
		}
	}
	if knobs != 10 {
		t.Errorf("cluster.Platform has %d exported fields, want 10", knobs)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(apprt.RunSpec{}), reflect.TypeOf(cluster.Config{})} {
		f, ok := typ.FieldByName("Platform")
		if !ok || !f.Anonymous || f.Type != want {
			t.Errorf("%v does not embed cluster.Platform", typ)
		}
	}
}

// TestConfigIsWhatARunVaries pins cluster.Config to the four things a run
// varies. The testbed's calibration is each layer's defaults, read by
// cluster.Run, not a per-run field: a knob no caller sets is one more
// configuration nothing covers.
func TestConfigIsWhatARunVaries(t *testing.T) {
	typ := reflect.TypeOf(cluster.Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			got = append(got, typ.Field(i).Name)
		}
	}
	if want := []string{"Nodes", "Seed", "Stacks", "Platform"}; !slices.Equal(got, want) {
		t.Errorf("cluster.Config has exported fields %v, want %v", got, want)
	}
}

func TestRunSpecValidate_Valid(t *testing.T) {
	tests := []struct {
		name string
		spec apprt.RunSpec
	}{
		{name: "zero platform", spec: apprt.RunSpec{Nodes: 4}},
		{name: "one node", spec: apprt.RunSpec{Nodes: 1}},
		{name: "zero counts select the defaults", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{DVPlanes: 0, VICsPerNode: 0}}},
		{name: "smallest explicit counts", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{DVPlanes: 1, VICsPerNode: 1}}},
		{name: "256 nodes at 2 rails", spec: apprt.RunSpec{Net: comm.DV, Nodes: 256,
			Platform: cluster.Platform{VICsPerNode: 2}}},
		{name: "InfiniBand at the node cap", spec: apprt.RunSpec{Net: comm.IB, Nodes: ib.MaxNodes}},
		{name: "traced run of every flow", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Attr: &attr.Config{Sample: 1, Trace: true}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestRunSpecValidate_Invalid(t *testing.T) {
	tests := []struct {
		name  string
		spec  apprt.RunSpec
		field string
	}{
		{name: "no nodes", spec: apprt.RunSpec{}, field: "Nodes"},
		{name: "negative nodes", spec: apprt.RunSpec{Nodes: -3}, field: "Nodes"},
		{name: "negative planes", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{DVPlanes: -4}}, field: "DVPlanes"},
		{name: "negative rails", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{VICsPerNode: -1}}, field: "VICsPerNode"},
		{name: "fault plan out of range", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Faults: &faultplan.Plan{DropProb: 1.5}}}, field: "Faults"},
		{name: "negative checkpoint interval", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Checkpoint: &cluster.Checkpoint{Every: -sim.Microsecond}}},
			field: "Checkpoint.Every"},
		{name: "negative wall budget", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Checkpoint: &cluster.Checkpoint{WallBudget: -time.Second}}},
			field: "Checkpoint.WallBudget"},
		{name: "negative virtual budget", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Checkpoint: &cluster.Checkpoint{VirtualBudget: -5 * sim.Microsecond}}},
			field: "Checkpoint.VirtualBudget"},
		{name: "nodes reported before platform", spec: apprt.RunSpec{
			Platform: cluster.Platform{DVPlanes: -1}}, field: "Nodes"},
		// ForPorts(1e8) is a valid port count whose switch has more cells
		// than an int32 index can address.
		{name: "switch past the cell cap", spec: apprt.RunSpec{Net: comm.DV, Nodes: 100_000_000},
			field: "Nodes"},
		{name: "ports past the cell cap", spec: apprt.RunSpec{Net: comm.DV, Nodes: 3_000_000_000},
			field: "Nodes"},
		// 2^33 x 2^31 is 2^64, which an unbounded int64 product wraps to 0
		// ports: ForPorts(0) is a valid 1x1 switch.
		{name: "wrapping nodes x rails", spec: apprt.RunSpec{Net: comm.DV, Nodes: 1 << 33,
			Platform: cluster.Platform{VICsPerNode: 1 << 31}}, field: "Nodes"},
		// ib.New allocates per node; ForNodes' k*k search wraps past 2^62.
		{name: "InfiniBand past the node cap", spec: apprt.RunSpec{Net: comm.IB, Nodes: ib.MaxNodes + 1},
			field: "Nodes"},
		{name: "InfiniBand at a billion nodes", spec: apprt.RunSpec{Net: comm.IB, Nodes: 1_000_000_000},
			field: "Nodes"},
		{name: "InfiniBand past 2^62 nodes", spec: apprt.RunSpec{Net: comm.IB, Nodes: 1<<62 + 1},
			field: "Nodes"},
		{name: "sampled trace", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Attr: &attr.Config{Sample: 4, Trace: true}}}, field: "Attr.Sample"},
		// The flow spans ride the Obs event store; without it they had
		// nowhere to go and the run wrote none.
		{name: "flow spans without metrics", spec: apprt.RunSpec{Nodes: 4,
			Platform: cluster.Platform{Attr: &attr.Config{Chrome: true}}}, field: "Attr.Chrome"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			var ce *cluster.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want a *cluster.ConfigError", err)
			}
			if ce.Field != tt.field {
				t.Errorf("error names field %q, want %q (%v)", ce.Field, tt.field, err)
			}
		})
	}
}

// TestRegisteredRunnersReturnErrors: an invalid spec and a problem size that
// does not divide over the nodes both come back as errors from a.Run — the
// signature's promise — and never as a panic.
func TestRegisteredRunnersReturnErrors(t *testing.T) {
	for _, a := range apprt.Apps() {
		spec := apprt.RunSpec{Net: comm.DV, Nodes: a.RefNodes}
		spec.DVPlanes = -2
		var ce *cluster.ConfigError
		if _, err := a.Run(spec); !errors.As(err, &ce) || ce.Field != "DVPlanes" {
			t.Errorf("%s: Run(DVPlanes=-2) = %v, want a ConfigError naming DVPlanes", a.Name, err)
		}
	}
	// Reference sizes are powers of two (snap: an 8x8 mesh), so none of
	// these splits over 3 (snap: 5) nodes.
	for name, nodes := range map[string]int{"bfs": 3, "fft": 3, "heat": 5, "pagerank": 3,
		"snap": 5, "spmv": 3, "vorticity": 3} {
		a, ok := apprt.Get(name)
		if !ok {
			t.Fatalf("app %q not registered", name)
		}
		for _, net := range comm.Nets() {
			if _, err := a.Run(apprt.RunSpec{Net: net, Nodes: nodes}); err == nil {
				t.Errorf("%s on %v over %d nodes: no error", name, net, nodes)
			}
		}
	}
}
