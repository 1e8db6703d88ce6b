// Package barrier implements the paper's global-barrier micro-benchmark
// (§V, Figure 4). Three implementations are compared at scale:
//
//   - "Data Vortex": the API's intrinsic barrier, executed by the VICs over
//     the two reserved group counters;
//   - "Fast Barrier": the authors' in-house all-to-all barrier, built on
//     normal API calls (every node decrements a counter on every other
//     node, then waits for its own counter to drain);
//   - "Infiniband": MPI_Barrier (dissemination) over the fat tree.
package barrier

import (
	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Impl selects the barrier implementation.
type Impl int

const (
	// DVIntrinsic is the API's hardware-supported barrier.
	DVIntrinsic Impl = iota
	// DVFastBarrier is the in-house all-to-all barrier.
	DVFastBarrier
	// MPIBarrier is MPI over InfiniBand.
	MPIBarrier
	// DVReliable is the software dissemination barrier over the reliable-
	// delivery layer: every notification is retransmitted until acknowledged,
	// so the barrier completes even when the fabric drops packets.
	DVReliable
)

// String names the implementation as Figure 4 labels it.
func (i Impl) String() string {
	switch i {
	case DVIntrinsic:
		return "Data Vortex"
	case DVFastBarrier:
		return "Fast Barrier"
	case MPIBarrier:
		return "Infiniband"
	case DVReliable:
		return "DV Reliable"
	}
	return "unknown"
}

// Opts configures fault injection for a run.
type Opts struct {
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
	// WaitTimeout, when > 0, bounds the Fast Barrier's counter waits so a
	// lossy run terminates (with Completed < Iters) instead of hanging. The
	// intrinsic barrier has no bounded wait: under loss its nodes park
	// forever and the run ends when the event queue drains, which Completed
	// likewise exposes.
	WaitTimeout sim.Time
}

// Result is one measurement.
type Result struct {
	Impl    Impl
	Nodes   int
	Iters   int
	Latency sim.Time // mean time per barrier

	// Completed is the minimum number of barrier iterations any node got
	// through — Iters on a healthy run, less when loss wedged the barrier.
	Completed int
	// Errors counts reliable-barrier calls that exhausted the retry budget.
	Errors int
	// Report is the cluster run report (fault and reliability telemetry).
	Report *cluster.Report
}

// Run measures mean barrier latency over iters synchronised barriers.
func Run(impl Impl, nodes, iters int) Result {
	return RunOpts(impl, nodes, iters, Opts{})
}

// RunOpts is Run with fault-injection options.
func RunOpts(impl Impl, nodes, iters int, opts Opts) Result {
	if iters <= 0 {
		iters = 100
	}
	net := comm.DV
	if impl == MPIBarrier {
		net = comm.IB
	}
	completed := make([]int, nodes)
	errs := 0
	var total sim.Time
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    nodes,
		Platform: opts.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		// Each bar() reports whether the barrier completed; a node whose
		// barrier gave up stops iterating, leaving its progress visible in
		// completed (progress is recorded before any wait can wedge).
		var bar func() bool
		switch impl {
		case DVIntrinsic:
			bar = func() bool { be.Endpoint().Barrier(); return true }
		case DVFastBarrier:
			bar = newFastBarrier(n, be, opts.WaitTimeout)
		case MPIBarrier:
			bar = func() bool { be.MPI().Barrier(); return true }
		case DVReliable:
			bar = func() bool {
				if err := be.Endpoint().ReliableBarrier(); err != nil {
					errs++
					return false
				}
				return true
			}
		}
		if !bar() { // synchronise entry
			return 0
		}
		t0 := n.P.Now()
		for i := 0; i < iters; i++ {
			if !bar() {
				return 0
			}
			completed[n.ID] = i + 1
		}
		span := n.P.Now() - t0
		if n.ID == 0 {
			total = span
		}
		return span
	})
	res := Result{Impl: impl, Nodes: nodes, Iters: iters, Errors: errs, Report: rep.Cluster}
	res.Completed = iters
	for _, c := range completed {
		if c < res.Completed {
			res.Completed = c
		}
	}
	if total > 0 {
		res.Latency = total / sim.Time(iters)
	}
	return res
}

// newFastBarrier builds the all-to-all barrier closure for one node. Two
// counters alternate between consecutive barriers so that a fast neighbour's
// next-epoch decrements never race this node's re-arm. A timeout of 0 means
// wait forever; otherwise the closure reports false when a wait expires.
func newFastBarrier(n *cluster.Node, be comm.Backend, timeout sim.Time) func() bool {
	e := be.Endpoint()
	gcs := [2]int{e.AllocGC(), e.AllocGC()}
	peers := int64(e.Size() - 1)
	e.ArmGC(gcs[0], peers)
	e.ArmGC(gcs[1], peers)
	e.Barrier() // everyone armed before first use
	wait := sim.Forever
	if timeout > 0 {
		wait = timeout
	}
	epoch := 0
	words := make([]vic.Word, 0, peers)
	return func() bool {
		gc := gcs[epoch&1]
		epoch++
		words = words[:0]
		for d := 0; d < e.Size(); d++ {
			if d != e.Rank() {
				words = append(words, vic.Word{Dst: d, Op: vic.OpDecGC, GC: vic.NoGC, Addr: uint32(gc), Val: 1})
			}
		}
		e.Scatter(vic.PIOCached, words)
		if !e.WaitGC(gc, wait) {
			return false // a notification was lost; abort this node
		}
		e.AddGC(gc, peers) // re-arm for two epochs later
		return true
	}
}
