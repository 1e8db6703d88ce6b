// Package cluster assembles the evaluation testbed of §IV: N nodes, each
// with a calibrated host CPU model, a VIC attached to a shared Data Vortex
// switch, and an InfiniBand NIC attached to a fat tree driven through MPI.
// SPMD programs run as one simulated process per node against whichever
// stack(s) the configuration enables, and a Report collects virtual-time
// results and fabric telemetry.
package cluster

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Stack selects which network stacks a run instantiates.
type Stack int

const (
	// StackDV enables the Data Vortex fabric and API.
	StackDV Stack = 1 << iota
	// StackIB enables the InfiniBand fabric and MPI.
	StackIB
	// StackBoth enables both side by side (as on the paper's testbed).
	StackBoth = StackDV | StackIB
)

// CPUModel is the calibrated host-side cost model. The testbed nodes are
// dual Haswell-EP (E5-2623v3); these rates describe what one benchmark
// process sustains, so that computation:communication ratios — the quantity
// the paper's analysis hinges on — are realistic.
type CPUModel struct {
	// GFLOPS is the dense floating-point rate of one node process.
	GFLOPS float64
	// RandomAccess is the cost of one irregular (cache-missing) memory
	// access, e.g. a GUPS table update.
	RandomAccess sim.Time
	// SmallOp is the cost of light per-item software work (decode a
	// received word, bucket an update, push to a queue).
	SmallOp sim.Time
}

// DefaultCPU returns the calibrated CPU model.
func DefaultCPU() CPUModel {
	return CPUModel{
		GFLOPS:       8,
		RandomAccess: 15 * sim.Nanosecond,
		SmallOp:      4 * sim.Nanosecond,
	}
}

// Platform is the run wiring every driver, workload and test shares: which
// engines simulate the testbed and which observers ride along. It is declared
// here once and embedded whole by Config, by apprt.RunSpec and by every app's
// Params, so a knob set at the top of a run reaches Run untouched. Problem
// sizing stays in each app's Params; Nodes, Seed and the network are RunSpec's.
type Platform struct {
	// VICsPerNode attaches multiple Data Vortex rails per node (the paper:
	// "each node in the cluster contains at least one VIC"). Rail 0 is
	// Node.DV; all rails appear in Node.Rails. 0 means 1.
	VICsPerNode int

	// CycleAccurate selects the cycle-level switch engine instead of the
	// calibrated fast model for the Data Vortex fabric.
	CycleAccurate bool
	// DVPlanes instantiates N parallel Data Vortex switch planes behind the
	// VIC boundary (0 or 1 = the paper's single-plane testbed). Every plane
	// has the whole switch's geometry; packets go to planes by a static
	// hash of (src, dst), deliveries funnel into one callback, and
	// Report.DVFabric merges per-plane stats. Plane selection is
	// deterministic, so runs stay reproducible at any plane count.
	DVPlanes int

	// IBScaled builds the full-bisection two-level fat tree sized for the
	// run's node count (ib.ForNodes) instead of the paper's fixed
	// 8-nodes/leaf × 2-spine testbed tree (ib.DefaultParams), which is 4:1
	// oversubscribed beyond a few leaves. Scaling studies set this so the
	// comparison stays honest at size.
	IBScaled bool
	// IBAdaptive enables adaptive fat-tree routing for the MPI stack.
	IBAdaptive bool

	// Faults, when non-nil, injects the plan's failures into every enabled
	// stack: link drop/corrupt probabilities and dead nodes into the Data
	// Vortex fabric, DMA stalls and FIFO capacity squeezes into the VICs,
	// and link flaps into the InfiniBand fabric. Runs remain bit-reproducible
	// for a fixed (Seed, Faults) pair.
	Faults *faultplan.Plan

	// Obs, when non-nil, enables the unified metrics layer: a registry of
	// counters and histograms across every enabled stack, a virtual-time
	// series sampler, and (when Obs.PacketSample > 0) "packet" spans in a
	// Chrome trace, projected at the end of the run from the run's flow
	// tracer (Attr's, or without Attr one that samples 1 in PacketSample
	// flows and feeds only the spans). Results land in Report.Metrics. Nil
	// costs one pointer test per instrumentation site.
	Obs *obs.Config

	// Check, when non-nil, enables the invariant layer: continuous
	// verification of switch packet conservation, VIC counter/FIFO/byte
	// conservation, and reliable-layer exactly-once delivery. Results land
	// in Report.Checks. Checking is pure observation and never changes a
	// run's results.
	Check *check.Config

	// Attr, when non-nil, enables causal flow tracing: sampled packets are
	// stamped with per-stage virtual timestamps (host TX, SRAM, inject wait,
	// fabric, eject, drain) as they cross each subsystem, and a per-stage /
	// per-node / per-kind latency decomposition lands in Report.Attr. The
	// stage sums of every traced flow provably equal its end-to-end latency
	// (enforced when Check.Attr is on). Attribution is pure observation:
	// enabling it never changes a run's results, and nil costs one pointer
	// test per seam. With Attr.Trace the tracer also keeps Figure 5's
	// execution trace (Report.Attr.Trace).
	Attr *attr.Config

	// Checkpoint, when non-nil, runs the simulation under the managed pump:
	// wall-clock and virtual-time budgets that end the run with a partial
	// Report instead of hanging, and boundaries every Checkpoint.Every of
	// virtual time at which an Audit takes the run's witness. A managed run
	// fires exactly the event sequence an unmanaged run fires, so Reports
	// are byte-identical. Checkpoint.Err is filled in by Run.
	Checkpoint *Checkpoint

	// denseSwitch and scalarBoundary select the two reference
	// implementations the product paths are proven bit-identical against.
	// They are not configuration: only WithOracles sets them, and only tests
	// call it.
	denseSwitch, scalarBoundary bool
}

// WithOracles returns p with the reference implementations selected: dense
// steps the cycle-accurate core with the full-fabric scan instead of the
// sparse bitmap walk (the fast model has no stepper and ignores it), scalar
// runs the VICs on the one-kernel-event-per-packet boundary instead of the
// batched pipeline. Results are bit-identical either way — that is what the
// differential suites that call this prove — so no driver offers it;
// TestOraclesAreTestOnly keeps it out of non-test code.
func WithOracles(p Platform, dense, scalar bool) Platform {
	p.denseSwitch, p.scalarBoundary = dense, scalar
	return p
}

// ConfigError reports a run-configuration field that no run can use.
type ConfigError struct {
	// Field names the offending field as it is declared (e.g. "DVPlanes").
	Field string
	// Reason says what is wrong with its value.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid run configuration: %s %s", e.Field, e.Reason)
}

// Validate rejects platform values that have no meaning, with a *ConfigError
// naming the field. Zero values are always valid (they select the defaults).
func (p Platform) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"DVPlanes", p.DVPlanes}, {"VICsPerNode", p.VICsPerNode}} {
		if f.v < 0 {
			return &ConfigError{Field: f.name, Reason: fmt.Sprintf("is negative (%d)", f.v)}
		}
	}
	if err := p.Faults.Validate(); err != nil {
		return &ConfigError{Field: "Faults", Reason: "is not a usable plan: " + err.Error()}
	}
	if a := p.Attr; a != nil && a.Trace && a.Sample > 1 {
		return &ConfigError{Field: "Attr.Sample", Reason: fmt.Sprintf(
			"must be 0 or 1 with Attr.Trace, which needs every flow (%d)", a.Sample)}
	}
	if a := p.Attr; a != nil && a.Chrome && p.Obs == nil {
		return &ConfigError{Field: "Attr.Chrome", Reason: "needs Obs, whose event store carries the spans"}
	}
	if cp := p.Checkpoint; cp != nil {
		// A negative interval would otherwise read as "no boundaries" and
		// leave an audit nothing to compare; a negative budget would read
		// as "no budget" and let the run the caller meant to bound go
		// unbounded.
		if cp.Every < 0 {
			return &ConfigError{Field: "Checkpoint.Every", Reason: fmt.Sprintf("is negative (%v)", cp.Every)}
		}
		if cp.WallBudget < 0 {
			return &ConfigError{Field: "Checkpoint.WallBudget", Reason: fmt.Sprintf("is negative (%v)", cp.WallBudget)}
		}
		if cp.VirtualBudget < 0 {
			return &ConfigError{Field: "Checkpoint.VirtualBudget", Reason: fmt.Sprintf("is negative (%v)", cp.VirtualBudget)}
		}
	}
	return nil
}

// Config describes one simulated cluster run: what a run varies. The
// testbed's calibration is not configuration; Run reads it from each layer's
// defaults (dvswitch.ForPorts at DefaultCycleTime, vic.DefaultParams,
// ib.DefaultParams or ib.ForNodes, mpi.DefaultParams, DefaultCPU).
type Config struct {
	Nodes  int
	Seed   uint64
	Stacks Stack

	Platform
}

// DefaultConfig returns the configuration of an n-node run of seed 1 with
// both stacks enabled.
func DefaultConfig(n int) Config {
	return Config{Nodes: n, Seed: 1, Stacks: StackBoth}
}

// Node is one cluster node as seen by an SPMD program body.
type Node struct {
	ID    int
	P     *sim.Proc
	RNG   *sim.RNG
	DV    *dv.Endpoint   // rail 0 (nil unless StackDV)
	Rails []*dv.Endpoint // all Data Vortex rails (len = VICsPerNode)
	MPI   *mpi.Comm      // nil unless StackIB
	CPU   CPUModel

	attr    *attr.Tracer   // keeps compute spans under Attr.Trace; nil unless Config.Attr
	compute *obs.Histogram // per-Compute durations, µs; nil unless Config.Obs
	work    workChain      // Work's and WorkEach's chain state (one runs at a time)
}

// Compute advances virtual time by d, representing host computation, and
// records a trace interval when the run is traced.
func (n *Node) Compute(d sim.Time) {
	if d <= 0 {
		return
	}
	t0 := n.P.Now()
	n.P.Wait(d)
	n.computed(t0, d)
}

// computed records a compute span of length d that started at t0 and ends
// now: the trace interval and the histogram sample.
func (n *Node) computed(t0, d sim.Time) {
	n.attr.Compute(n.ID, t0, n.P.Now())
	if n.compute != nil {
		n.compute.Observe(int64(d / sim.Microsecond))
	}
}

// Flops advances time by the cost of f floating-point operations.
func (n *Node) Flops(f float64) {
	n.Compute(sim.DurationOf(f / (n.CPU.GFLOPS * 1e9)))
}

// Ops advances time by the cost of c small software operations.
func (n *Node) Ops(c int64) {
	n.Compute(sim.Time(c) * n.CPU.SmallOp)
}

// Work advances time by the cost of ops small software operations and then of
// mem irregular memory accesses, as Compute(ops·SmallOp) followed by
// Compute(mem·RandomAccess) would: the same two spans, recorded at the same
// instants. It is WorkEach's one-item case, so the process is switched to
// once, at the end.
func (n *Node) Work(ops, mem int64) {
	n.work = workChain{n: n, next: noItem, t0: n.P.Now()}
	n.work.item(ops, mem)
	n.P.Chain(&n.work)
}

// WorkEach runs the loop
//
//	for { ops, mem, ok := next(); if !ok { break }; Work(ops, mem) }
//
// but switches to the process only when next reports no item: every call of
// next after the first, and every span's record, runs inside the kernel event
// that ends the span before it (sim.Proc.Chain). So next must not block.
func (n *Node) WorkEach(next func() (ops, mem int64, ok bool)) {
	n.work = workChain{n: n, next: next, t0: n.P.Now()}
	n.P.Chain(&n.work)
}

func noItem() (ops, mem int64, ok bool) { return 0, 0, false }

// workChain is the chain of Work and WorkEach: each item's two spans in
// order, each recorded at its end, and between items a call of next.
type workChain struct {
	n    *Node
	next func() (ops, mem int64, ok bool)
	a, b sim.Time // the current item's spans not yet started
	t0   sim.Time // when the last step ran: a span ends at each later one
}

func (w *workChain) item(ops, mem int64) {
	w.a, w.b = sim.Time(ops)*w.n.CPU.SmallOp, sim.Time(mem)*w.n.CPU.RandomAccess
}

func (w *workChain) Step() (sim.Time, bool) {
	if now := w.n.P.Now(); now > w.t0 {
		w.n.computed(w.t0, now-w.t0)
		w.t0 = now
	}
	for {
		if d := w.a; d > 0 {
			w.a = 0
			return d, true
		}
		if d := w.b; d > 0 {
			w.b = 0
			return d, true
		}
		ops, mem, ok := w.next()
		if !ok {
			return 0, false
		}
		w.item(ops, mem)
	}
}

// Report summarises one run.
type Report struct {
	// Elapsed is the virtual time from launch to the last node finishing —
	// the "execution time" every paper metric derives from.
	Elapsed   sim.Time
	NodeTimes []sim.Time

	DVFabric dvswitch.Stats
	VICs     []vic.Stats
	IBFabric ib.Stats

	// Dropped is the total packets lost this run across loss mechanisms:
	// fabric drops, CRC-discarded corruptions, and surprise-FIFO overflow.
	Dropped int64
	// Corrupted is the number of in-flight payload corruptions injected.
	Corrupted int64
	// Reliability aggregates the dv reliable-delivery counters (retransmits,
	// retry rounds, recovery time) over every endpoint of the run.
	Reliability dv.ReliableStats

	// Metrics holds the observability output when Config.Obs was set: final
	// instrument values, the sampled time series, and the packet spans (plus
	// any per-flow stage spans) for Chrome/Perfetto export.
	Metrics *obs.Metrics

	// Checks holds the invariant-layer result when Config.Check was set.
	// Omitted from JSON when checking was off so pinned golden reports are
	// unchanged by the field's existence.
	Checks *check.Result `json:",omitempty"`

	// Attr holds the stage-level latency attribution when Config.Attr was
	// set: per-stage/per-node/per-kind decompositions, the slowest flows,
	// the deflection heatmap (cycle-accurate runs), and under Attr.Trace the
	// run's execution trace (Attr.Trace()) and critical path. Omitted from
	// JSON when attribution was off so pinned golden reports are unchanged.
	Attr *attr.Summary `json:",omitempty"`

	// Partial marks a report cut short by a checkpoint budget
	// (Config.Checkpoint.WallBudget / VirtualBudget): Elapsed is the virtual
	// time reached, fabric telemetry reflects work done so far, and Checks
	// is omitted (end-of-run invariants are meaningless mid-flight).
	Partial bool `json:",omitempty"`
}

// kernelEvents, kernelResumes and kernelPeak total sim.Kernel.Counts and
// sim.Kernel.PeakPending over the runs this process has finished (atomics:
// sweep jobs finish concurrently).
var kernelEvents, kernelResumes, kernelPeak atomic.Uint64

// KernelCounts returns how many kernel events were fired and how many
// process resumes were made by all the runs completed in this process so far,
// and the sum of their peak pending-event counts; the difference between two
// calls is what the runs between them cost (for one run, peakPending is that
// run's deepest queue). The counts are simulator cost, not simulated
// behaviour, which is why Report does not carry them: runs that must produce
// identical Reports (batched and scalar boundary, checks on and off, managed
// and unmanaged) differ in them.
func KernelCounts() (events, resumes, peakPending uint64) {
	return kernelEvents.Load(), kernelResumes.Load(), kernelPeak.Load()
}

// Run executes body SPMD-style on every node and returns the report.
func Run(cfg Config, body func(n *Node)) *Report {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", cfg.Nodes))
	}
	rails := cfg.VICsPerNode
	if rails < 1 {
		rails = 1
	}
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed)

	var chk *check.Checker
	if cfg.Check != nil {
		chk = check.New(cfg.Check)
	}

	// Flow attribution: one tracer per run, shared by every seam. All tracer
	// methods no-op on a nil receiver, so the disabled path costs one pointer
	// test per site. Without Attr, packet spans (Obs.PacketSample) still need
	// flows: the tracer then samples 1 in PacketSample of them and feeds only
	// the spans — no Report.Attr, checker, heat grid or MPI flows.
	var tracer *attr.Tracer
	switch {
	case cfg.Attr != nil:
		tracer = attr.NewTracer(cfg.Attr, dvswitch.WireBytes)
		if chk != nil {
			chk.AttachAttr(tracer)
		}
	case cfg.Obs != nil && cfg.Obs.PacketSample > 0:
		// No Report.Attr would carry an overflow count, so the flows are
		// not capped: a run's spans are all of its sampled packets.
		tracer = attr.NewTracer(&attr.Config{Sample: cfg.Obs.PacketSample, MaxFlows: math.MaxInt32}, dvswitch.WireBytes)
	}

	// Observability: one registry and sampler per run (the kernel is
	// single-threaded, so instruments need no locking; parallel sweep points
	// each build their own kernel and registry).
	var reg *obs.Registry
	var sampler *obs.Sampler
	var vicObs *vic.Obs
	var relObs *dv.RelObs
	if cfg.Obs != nil {
		reg = obs.NewRegistry()
		sampler = obs.NewSampler(k, cfg.Obs.Every)
		vicObs = vic.NewObs(reg)
		relObs = dv.NewRelObs(reg)
	}

	// Data Vortex stack. With R rails, VIC g = rail*Nodes + node sits at
	// port g, and each VIC addresses node ids on its own rail (vic.New), so
	// rails are fully independent planes of the same switch. With
	// DVPlanes > 1 the whole switch is replicated into parallel planes
	// behind one Fabric boundary; a single plane keeps the unwrapped engine
	// so single-plane runs are byte-identical to the pre-multi-plane
	// simulator.
	var fabric dvswitch.Fabric
	var vics []*vic.VIC
	planes := cfg.DVPlanes
	if planes < 1 {
		planes = 1
	}
	if cfg.Stacks&StackDV != 0 {
		total := cfg.Nodes * rails
		geom, ct := dvswitch.ForPorts(total), dvswitch.DefaultCycleTime
		list := make([]dvswitch.Fabric, 0, planes)
		if cfg.CycleAccurate {
			cores := make([]*dvswitch.Core, 0, planes)
			for pi := 0; pi < planes; pi++ {
				eng := dvswitch.NewEngine(k, geom, ct)
				if cfg.denseSwitch {
					eng.Core().Dense = true
				}
				eng.ApplyPlan(cfg.Faults)
				eng.SetObs(reg)
				// The engine stamps the inject-wait and fabric stages at
				// delivery, the fast model at Inject: each where they are known.
				eng.SetAttr(tracer)
				if cfg.Attr != nil {
					// Per-deflection congestion counts on the cylinder×angle
					// grid; HeatGrid is idempotent for one geometry, so every
					// plane accumulates into the same shared census.
					eng.SetHeat(tracer.HeatGrid(geom.Cylinders(), geom.Angles))
				}
				if chk != nil {
					chk.AttachCore(eng.Core())
				}
				list = append(list, eng)
				cores = append(cores, eng.Core())
			}
			if sampler != nil {
				sampler.Column("inflight", func() float64 {
					var n int
					for _, core := range cores {
						n += core.InFlight() + core.QueuedPackets()
					}
					return float64(n)
				})
				for cl := 0; cl < geom.Cylinders(); cl++ {
					name := fmt.Sprintf("deflected_cyl%d", cl)
					sampler.Column(name, func() float64 {
						return float64(reg.CounterValue("switch_" + name + "_total"))
					})
				}
			}
		} else {
			fms := make([]*dvswitch.FastModel, 0, planes)
			for pi := 0; pi < planes; pi++ {
				fm := dvswitch.NewFastModel(k, geom, ct, rng.Split())
				fm.ApplyPlan(cfg.Faults)
				fm.SetObs(reg)
				fm.SetAttr(tracer)
				if chk != nil {
					fm.DropHook = chk.FabricDrop
				}
				list = append(list, fm)
				fms = append(fms, fm)
			}
			if sampler != nil {
				sampler.Column("inflight", func() float64 {
					var n int64
					for _, fm := range fms {
						n += fm.Outstanding()
					}
					return float64(n)
				})
			}
		}
		fabric = list[0]
		if planes > 1 {
			fabric = dvswitch.NewMultiPlane(list)
		}
		if sampler != nil {
			for _, c := range []string{"injected", "delivered", "deflected", "dropped"} {
				name := "switch_" + c + "_total"
				sampler.Column(c+"_total", func() float64 {
					return float64(reg.CounterValue(name))
				})
			}
		}
		vicPar := vic.DefaultParams()
		if cfg.Faults != nil && cfg.Faults.FIFOCapacity > 0 {
			vicPar.FIFOCapacity = cfg.Faults.FIFOCapacity
		}
		inject := fabric.Inject
		injectBatch := fabric.InjectBatch
		if chk != nil {
			inject = chk.WrapInject(inject)
			injectBatch = chk.WrapInjectBatch(injectBatch)
		}
		vics = make([]*vic.VIC, total)
		for r := 0; r < rails; r++ {
			for i := 0; i < cfg.Nodes; i++ {
				g := r*cfg.Nodes + i
				v := vic.New(k, i, g, vicPar, inject)
				if cfg.scalarBoundary {
					v.SetScalarBoundary(true)
				} else {
					v.SetBatchInject(injectBatch)
					if g > 0 {
						v.ShareScratch(vics[0]) // one run, one kernel: injections never nest
					}
				}
				v.BarrierInit(cfg.Nodes)
				v.SetObs(vicObs)
				if tracer != nil {
					v.SetAttr(tracer)
				}
				if chk != nil {
					chk.AttachVIC(v)
				}
				vics[g] = v
			}
		}
		if sampler != nil {
			sampler.Column("fifo_depth", func() float64 {
				var d int
				for _, v := range vics {
					d += v.FIFODepth()
				}
				return float64(d)
			})
			sampler.Column("dma_busy_frac", func() float64 {
				now := k.Now()
				if now == 0 {
					return 0
				}
				var busy sim.Time
				for _, v := range vics {
					busy += v.DMABusy()
				}
				// Two DMA engines per VIC.
				return float64(busy) / (2 * float64(len(vics)) * float64(now))
			})
			sampler.Column("rel_retransmits", func() float64 {
				return float64(reg.CounterValue("rel_retransmits_total"))
			})
			sampler.Column("rel_timeouts", func() float64 {
				return float64(reg.CounterValue("rel_timeouts_total"))
			})
		}
		deliver := func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) }
		if chk != nil {
			deliver = chk.WrapDeliver(deliver)
		}
		fabric.OnDeliver(deliver)
		if cfg.Faults != nil {
			for _, s := range cfg.Faults.DMAStalls {
				if s.VIC >= 0 && s.VIC < len(vics) {
					vics[s.VIC].StallDMA(s.At, s.Stall)
				}
			}
		}
	}

	// InfiniBand/MPI stack.
	var world *mpi.World
	if cfg.Stacks&StackIB != 0 {
		ibPar := ib.DefaultParams()
		if cfg.IBScaled {
			ibPar = ib.ForNodes(cfg.Nodes)
		}
		ibPar.Adaptive = cfg.IBAdaptive
		ibf := ib.New(k, cfg.Nodes, ibPar)
		if cfg.Faults != nil {
			for _, fl := range cfg.Faults.IBFlaps {
				ibf.ScheduleFlap(fl.Leaf, fl.Spine, fl.Start, fl.Down)
			}
		}
		world = mpi.NewWorld(k, ibf, mpi.DefaultParams())
		world.SetObs(reg)
		if sampler != nil {
			// Aggregate uplink busy time per unit virtual time; exceeds 1
			// when several of the leaf↔spine links are busy concurrently.
			sampler.Column("ib_uplink_busy", func() float64 {
				now := k.Now()
				if now == 0 {
					return 0
				}
				return float64(ibf.UplinkBusy()) / float64(now)
			})
			sampler.Column("ib_flap_recoveries", func() float64 {
				return float64(reg.CounterValue("ib_flap_recoveries_total"))
			})
		}
		if cfg.Attr != nil {
			world.OnMessage(tracer.MPIFlow)
		}
	}

	// The node closures below read only the node count: capturing cfg would
	// copy the whole Config into each of them.
	nodes := cfg.Nodes
	rep := &Report{NodeTimes: make([]sim.Time, nodes)}
	endpoints := make([][]*dv.Endpoint, nodes)
	nodeRNGs := make([]*sim.RNG, 0, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		nodeRNG := rng.Split()
		nodeRNGs = append(nodeRNGs, nodeRNG)
		k.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
			n := &Node{ID: i, P: p, RNG: nodeRNG, CPU: DefaultCPU(), attr: tracer, compute: reg.Histogram("node_compute_us")}
			if vics != nil {
				for r := 0; r < rails; r++ {
					e := dv.NewEndpoint(vics[r*nodes+i], i, nodes)
					e.Bind(p)
					e.SetObs(relObs)
					if tracer != nil {
						e.SetAttr(tracer)
					}
					if chk != nil {
						base := r * nodes
						chk.BindEndpoint(e, func(dst int) *vic.VIC {
							if dst < 0 || dst >= nodes {
								return nil
							}
							return vics[base+dst]
						})
					}
					n.Rails = append(n.Rails, e)
				}
				n.DV = n.Rails[0]
				endpoints[i] = n.Rails
			}
			if world != nil {
				n.MPI = world.Bind(i, p)
			}
			body(n)
			rep.NodeTimes[i] = p.Now()
			if p.Now() > rep.Elapsed {
				rep.Elapsed = p.Now()
			}
		})
	}
	sampler.Start()
	if cfg.Checkpoint != nil {
		st := &runState{k: k, cp: cfg.Checkpoint, rootRNG: rng, nodeRNGs: nodeRNGs}
		rep.Partial = st.runManaged()
	} else {
		k.Run()
	}
	ev, rs := k.Counts()
	kernelEvents.Add(ev)
	kernelResumes.Add(rs)
	kernelPeak.Add(uint64(k.PeakPending()))
	// Final forced sample: the end-of-run row carries the exact cumulative
	// totals, so the JSONL series closes on the same numbers as the Report.
	sampler.SampleNow()
	if fabric != nil {
		rep.DVFabric = fabric.FabricStats()
		rep.VICs = make([]vic.Stats, len(vics))
		rep.Dropped = rep.DVFabric.Dropped
		rep.Corrupted = rep.DVFabric.Corrupted
		for i, v := range vics {
			rep.VICs[i] = v.Stats()
			rep.Dropped += rep.VICs[i].CorruptDropped + rep.VICs[i].FIFODropped
		}
		for _, rails := range endpoints {
			for _, e := range rails {
				rep.Reliability.Merge(e.ReliableTelemetry())
			}
		}
	}
	if world != nil {
		rep.IBFabric = world.F.FabricStats()
	}
	if cfg.Obs != nil {
		packets := new(obs.Pages[obs.TraceEvent])
		if every := cfg.Obs.PacketSample; every > 0 {
			if cfg.Attr == nil {
				every = 1 // the tracer sampled when it began each flow
			}
			tracer.PacketEvents(packets, k.Now(), every)
		}
		if cfg.Attr != nil && cfg.Attr.Chrome {
			tracer.ChromeEvents(packets)
		}
		rep.Metrics = &obs.Metrics{Registry: reg, Series: sampler.Series(), Packets: packets}
	}
	if rep.Partial {
		// The run was cut mid-flight: nodes have not finished, so Elapsed is
		// the virtual time reached, and end-of-run invariants (conservation
		// with packets still in flight) cannot be finalized.
		rep.Elapsed = k.Now()
	} else if chk != nil {
		rep.Checks = chk.Finalize()
	}
	if cfg.Attr != nil {
		// Finalize after the invariant layer so stage-sum violations (if any)
		// are already recorded; the summary itself is valid even for partial
		// runs — it only aggregates flows completed so far.
		rep.Attr = tracer.Finalize(k.Now())
	}
	return rep
}
