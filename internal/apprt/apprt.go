// Package apprt is the application runtime harness: the one place that
// turns "run this workload on that network" into a wired cluster. It owns
// the run lifecycle every app package used to re-implement privately —
// building the §IV testbed configuration, selecting the stack for a
// comm.Net, injecting fault plans, attaching tracing and the metrics
// layer, timing the kernels, and assembling the run Report — plus a
// registry in which every workload under internal/apps self-registers, so
// drivers (dvbench, dvcheck, dvprof, the conformance suite)
// discover the real app set instead of hand-maintaining lists. The drivers
// that run apps take one flag set for it (BindRunFlags).
//
// An app is reduced to a kernel: a function of (node, backend) returning
// the node's measured span. Adding a workload is one file — implement the
// kernel, call apprt.Register in init, and every driver picks it up.
package apprt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/ib"
	"repro/internal/sim"
)

// RunSpec is the harness configuration shared by every workload: which
// network, how many nodes, which seed, the platform wiring (embedded whole
// and handed to the cluster untouched), and the two app-protocol switches
// the loss-tolerant workloads implement. App-specific sizing (table words,
// grid points, graph scale, ...) stays in each app's own Params.
type RunSpec struct {
	// Net selects the network under test.
	Net comm.Net
	// Nodes is the cluster size.
	Nodes int
	// Seed pins the run's randomness; 0 keeps the testbed default.
	Seed uint64

	// Platform is the run wiring (engines, fabrics, observers).
	cluster.Platform

	// Reliable routes Data Vortex traffic through the reliable-delivery
	// layer in apps that support it.
	Reliable bool
	// WaitTimeout, when > 0, bounds unprotected completion waits so lossy
	// runs terminate and report losses instead of hanging.
	WaitTimeout sim.Time
}

// Validate rejects a spec no cluster can be built from, with a
// *cluster.ConfigError naming the field. Registered runners call it before
// any cluster exists, so drivers can print the error and exit.
func (s RunSpec) Validate() error {
	if s.Nodes < 1 {
		return &cluster.ConfigError{Field: "Nodes", Reason: fmt.Sprintf("must be at least 1 (%d)", s.Nodes)}
	}
	if err := s.Platform.Validate(); err != nil {
		return err
	}
	if s.Net != comm.DV {
		if s.Nodes > ib.MaxNodes {
			return &cluster.ConfigError{Field: "Nodes", Reason: fmt.Sprintf(
				"is too large for one InfiniBand fat tree: %d nodes exceed %d", s.Nodes, ib.MaxNodes)}
		}
		return nil
	}
	// The switch has one port per VIC. Each factor is bounded before the
	// product is taken, as dvswitch.Params.Validate does, so it cannot wrap
	// into a small port count that ForPorts would answer with a valid switch.
	rails := max(1, s.VICsPerNode)
	if s.Nodes > dvswitch.MaxGeometryCells || rails > dvswitch.MaxGeometryCells ||
		int64(s.Nodes)*int64(rails) > dvswitch.MaxGeometryCells {
		return &cluster.ConfigError{Field: "Nodes", Reason: fmt.Sprintf(
			"is too large for one Data Vortex switch: %d nodes x %d rails exceed %d ports", s.Nodes, rails, dvswitch.MaxGeometryCells)}
	}
	if err := dvswitch.ForPorts(s.Nodes * rails).Validate(); err != nil {
		return &cluster.ConfigError{Field: "Nodes", Reason: "is too large for one Data Vortex switch: " + err.Error()}
	}
	return nil
}

// Kernel is one workload's per-node body. It receives the node and the
// backend for the spec's network and returns the span it measured (0 when
// this node does not contribute a measurement); app-specific outputs are
// collected through the closure. Kernels run SPMD under the deterministic
// event kernel, so closure writes need no locking.
type Kernel func(n *cluster.Node, be comm.Backend) sim.Time

// Report is the harness-level outcome of one run.
type Report struct {
	// Net and Nodes echo the spec.
	Net   comm.Net
	Nodes int
	// Elapsed is the longest span any kernel measured (the quantity every
	// paper metric derives from).
	Elapsed sim.Time
	// Cluster is the full testbed report: virtual node times, fabric and
	// fault telemetry, reliability counters, and metrics when Obs was set.
	Cluster *cluster.Report
}

// Execute wires spec into a cluster, runs kernel SPMD on every node, and
// assembles the report. This is the single construction path for every
// registered workload; behavior matches the wiring the apps used to do by
// hand (a zero Seed keeps the calibrated default, exactly as apps that
// never set cfg.Seed did).
func Execute(spec RunSpec, kernel Kernel) Report {
	if err := spec.Validate(); err != nil {
		panic("apprt: " + err.Error())
	}
	cfg := cluster.DefaultConfig(spec.Nodes)
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Stacks = spec.Net.Stacks()
	cfg.Platform = spec.Platform
	rep := Report{Net: spec.Net, Nodes: spec.Nodes}
	rep.Cluster = cluster.Run(cfg, func(n *cluster.Node) {
		if d := kernel(n, comm.New(spec.Net, n)); d > rep.Elapsed {
			rep.Elapsed = d
		}
	})
	return rep
}
