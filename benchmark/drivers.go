package main

import (
	"math"
	"time"

	"repro/internal/apps/bfs"
	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/fftkernel"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Layer drivers time calls into one layer's public functions in isolation,
// from outside the program. Each replays the load shape of one workload, its
// home, so a change to the layer should move the driver and that workload's
// wall_s together (README: the interaction table).

// driverCtx is what one driver sample gets.
type driverCtx struct {
	d      time.Duration // host time to measure over
	seed   uint64
	shrink int // size reduction (see workload.make), for the drivers that replay a whole run
	// home is set when the traced workload is the driver's home; elapsed is
	// then the simulated run time of that workload's own runs.
	home    bool
	elapsed sim.Time
}

// driver measures one or more per-layer metrics. sample returns one value
// per metric; the reported value is the median of the samples taken.
type driver struct {
	home    string // the workload whose load shape the driver replays
	metrics []metricDef
	sample  func(c driverCtx) []float64
	// once marks a driver whose values are simulated quantities: they repeat
	// exactly, so one sample is the measurement.
	once bool
}

const driverSamples = 3

// perUnit calls batch, which does some work and returns how many units of
// it, until d of host time has passed, and returns host ns per unit.
func perUnit(d time.Duration, batch func() int64) float64 {
	var units int64
	t0 := time.Now()
	for {
		units += batch()
		if el := time.Since(t0); el >= d {
			return float64(el.Nanoseconds()) / float64(units)
		}
	}
}

var drivers = []driver{
	{
		home:    "gups_dv_fast",
		metrics: []metricDef{{Name: "sim.event_ns", Unit: "ns", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return eventLoop(c.d, 64, sim.Microsecond) },
	},
	{
		home:    "fft_dv",
		metrics: []metricDef{{Name: "sim.event_deep_ns", Unit: "ns", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return eventLoop(c.d, 1<<16, sim.Millisecond) },
	},
	{
		home:    "gups_ib",
		metrics: []metricDef{{Name: "sim.handoff_ns", Unit: "ns", Better: "lower"}},
		sample:  handoff,
	},
	{
		home:    "figures_small",
		metrics: []metricDef{{Name: "sim.spawn_us", Unit: "us", Better: "lower"}},
		sample:  spawn,
	},
	{
		home:    "fft_dv",
		metrics: []metricDef{{Name: "dvswitch.fast_inject_ns", Unit: "ns", Better: "lower"}},
		sample:  fastInject,
	},
	{
		home:    "figures_small",
		metrics: []metricDef{{Name: "dvswitch.core_sparse_ns_per_cycle", Unit: "ns", Better: "lower"}},
		sample:  coreSparse,
	},
	{
		home: "a2a_dv_cycle256",
		metrics: []metricDef{
			{Name: "dvswitch.core_sat_ns_per_hop", Unit: "ns", Better: "lower"},
			{Name: "dvswitch.core_sat_deflect_ratio", Unit: "ratio", Better: "lower"},
		},
		sample: coreSaturated,
	},
	{
		home:    "a2a_dv_cycle256",
		metrics: []metricDef{{Name: "dvswitch.fan2_speedup", Unit: "ratio", Better: "higher"}},
		sample:  fanSpeedup,
	},
	{
		home:    "gups_dv_fast",
		metrics: []metricDef{{Name: "vic.inject_ns_per_word", Unit: "ns", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return vicSend(c.d, false) },
	},
	{
		home:    "a2a_dv_cycle256",
		metrics: []metricDef{{Name: "vic.eject_ns_per_pkt", Unit: "ns", Better: "lower"}},
		sample:  vicEject,
	},
	{
		home:    "gups_dv_fast",
		metrics: []metricDef{{Name: "dv.scatter_ns_per_word", Unit: "ns", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return vicSend(c.d, true) },
	},
	{
		home:    "gups_ib",
		metrics: []metricDef{{Name: "ib.transfer_ns", Unit: "ns", Better: "lower"}},
		sample:  ibTransfer,
	},
	{
		home:    "gups_ib",
		metrics: []metricDef{{Name: "mpi.alltoall_ns_per_msg", Unit: "ns", Better: "lower"}},
		sample:  mpiAlltoall,
	},
	{
		home:    "figures_small",
		metrics: []metricDef{{Name: "cluster.setup_dv_us", Unit: "us", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return clusterSetup(c.d, cluster.StackDV) },
	},
	{
		home:    "figures_small",
		metrics: []metricDef{{Name: "cluster.setup_ib_us", Unit: "us", Better: "lower"}},
		sample:  func(c driverCtx) []float64 { return clusterSetup(c.d, cluster.StackIB) },
	},
	{
		home:    "bfs_ib",
		metrics: []metricDef{{Name: "apps.bfs_gen_ns_per_edge", Unit: "ns", Better: "lower"}},
		sample:  bfsGen,
	},
	{
		home:    "fft_dv",
		metrics: []metricDef{{Name: "apps.fft_ns_per_point", Unit: "ns", Better: "lower"}},
		sample:  fftPoints,
	},
	{
		home: "gups_dv_instr",
		metrics: []metricDef{
			{Name: "obs.on_off_wall_ratio", Unit: "ratio", Better: "lower"},
			{Name: "obs.on_off_alloc_ratio", Unit: "ratio", Better: "lower"},
		},
		sample: obsOnOff,
	},
	{
		home:    "gups_dv_fast",
		metrics: []metricDef{{Name: "dvswitch.fast_model_err_pct_gups", Unit: "%", Better: "lower"}},
		sample:  gupsModelError,
		once:    true,
	},
	{
		home:    "a2a_dv_cycle256",
		metrics: []metricDef{{Name: "dvswitch.fast_model_err_pct_a2a", Unit: "%", Better: "lower"}},
		sample:  a2aModelError,
		once:    true,
	},
}

// runDrivers samples every driver and adds the median per metric to out;
// each sample is a span under the traced workload. The drivers whose home
// that workload is share d of host time at its size, three samples each.
// The benchmark's driver wants every per-layer metric in every traced
// result, so each of the others is given one sample of minDriverSample at
// smoke size: enough to say it still runs, not a measurement.
func runDrivers(p *pass, d time.Duration, out map[string]measured) {
	timed := 0
	for _, dr := range drivers {
		if dr.home == p.w.name && !dr.once {
			timed += driverSamples
		}
	}
	for _, dr := range drivers {
		c := driverCtx{d: minDriverSample, seed: p.cfg.seed, shrink: smokeShrink}
		n := 1
		if dr.home == p.w.name {
			c.home, c.shrink, c.elapsed = true, p.cfg.shrink, sim.Time(p.first.ElapsedPs)
			if !dr.once {
				n = driverSamples
				c.d = max(c.d, d/time.Duration(timed))
			}
		}
		vals := make([][]float64, len(dr.metrics))
		for i := 0; i < n; i++ {
			done := p.sp.begin(dr.metrics[0].Name, p.w.name)
			v := dr.sample(c)
			done()
			for j := range vals {
				vals[j] = append(vals[j], v[j])
			}
		}
		for j, m := range dr.metrics {
			out[m.Name] = summarize(m.Unit, vals[j])
		}
	}
}

// eventLoop keeps pending self-rescheduling AfterArg events alive, each
// firing again after a random delay within horizon, and returns host ns per
// fired event. 64 pending over 1 us is the shallow queue of a GUPS run;
// 65 536 over 1 ms is the deep calendar of the FFT's bulk transposes.
func eventLoop(d time.Duration, pending int, horizon sim.Time) []float64 {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	var fire func(any)
	fire = func(a any) { k.AfterArg(1+sim.Time(rng.Uint64n(uint64(horizon))), fire, a) }
	for i := 0; i < pending; i++ {
		fire(nil)
	}
	k.RunUntilN(sim.Forever, 4*pending) // fill the event pool and the calendar
	return []float64{perUnit(d, func() int64 { return int64(k.RunUntilN(sim.Forever, 4096)) })}
}

// handoff runs 32 processes that each loop Proc.Wait, the park/resume round
// trip every blocking call of a simulated node pays. Returns ns per trip.
func handoff(c driverCtx) []float64 {
	k := sim.NewKernel()
	var trips int64
	stop := false
	t0 := time.Now()
	for i := 0; i < 32; i++ {
		timekeeper := i == 0
		k.Spawn("waiter", func(p *sim.Proc) {
			for n := 1; !stop; n++ {
				p.Wait(sim.Nanosecond)
				trips++
				if timekeeper && n&127 == 0 && time.Since(t0) >= c.d {
					stop = true
				}
			}
		})
	}
	k.Run()
	return []float64{float64(time.Since(t0).Nanoseconds()) / float64(trips)}
}

// spawn starts and finishes short-lived processes, the per-node cost every
// small run pays. Returns host us per process.
func spawn(c driverCtx) []float64 {
	const batch = 64
	return []float64{perUnit(c.d, func() int64 {
		k := sim.NewKernel()
		for i := 0; i < batch; i++ {
			k.Spawn("short", func(p *sim.Proc) {})
		}
		k.Run()
		return batch
	}) / 1e3}
}

// fastInject holds 4096 packets in flight on a 128-port fast model, every
// delivery re-injecting. Returns ns per Inject-to-deliver.
func fastInject(c driverCtx) []float64 {
	k := sim.NewKernel()
	var geom dvswitch.Params
	geom.Heights, geom.Angles = 32, 4
	m := dvswitch.NewFastModel(k, geom, dvswitch.DefaultCycleTime, sim.NewRNG(3))
	rng := sim.NewRNG(5)
	ports := geom.Ports()
	m.OnDeliver(func(pkt dvswitch.Packet) {
		var next dvswitch.Packet
		next.Src, next.Dst = pkt.Dst, rng.Intn(ports)
		m.Inject(next)
	})
	for i := 0; i < 4096; i++ {
		var pkt dvswitch.Packet
		pkt.Src, pkt.Dst = rng.Intn(ports), rng.Intn(ports)
		m.Inject(pkt)
	}
	k.RunUntilN(sim.Forever, 1<<15)
	return []float64{perUnit(c.d, func() int64 { return int64(k.RunUntilN(sim.Forever, 4096)) })}
}

// closedLoopCore builds a cycle-accurate core that keeps inFlight packets
// alive by re-injecting every delivery, and steps it warm cycles.
func closedLoopCore(geom dvswitch.Params, inFlight, warm int) *dvswitch.Core {
	core := dvswitch.NewCore(geom)
	rng := sim.NewRNG(7)
	ports := geom.Ports()
	core.Deliver = func(pkt dvswitch.Packet, _ int64) {
		var next dvswitch.Packet
		next.Src, next.Dst = pkt.Dst, rng.Intn(ports)
		core.Inject(next)
	}
	core.Prewarm(inFlight)
	for i := 0; i < inFlight; i++ {
		var pkt dvswitch.Packet
		pkt.Src, pkt.Dst = rng.Intn(ports), rng.Intn(ports)
		core.Inject(pkt)
	}
	for i := 0; i < warm; i++ {
		core.Step()
	}
	return core
}

// step64 steps core 64 cycles and returns the packet hops they made.
func step64(core *dvswitch.Core) (hops int64) {
	before := core.Stats().TotalHops
	for i := 0; i < 64; i++ {
		core.Step()
	}
	return core.Stats().TotalHops - before
}

// coreSparse steps the paper's 8x4 switch with 2 packets in flight, the
// near-empty fabric of small cycle-accurate runs. Returns ns per cycle.
func coreSparse(c driverCtx) []float64 {
	var geom dvswitch.Params
	geom.Heights, geom.Angles = 8, 4
	core := closedLoopCore(geom, 2, 512)
	return []float64{perUnit(c.d, func() int64 { step64(core); return 64 })}
}

// saturatedCore is the 256-port core with every injection queue busy.
func saturatedCore() *dvswitch.Core {
	geom := dvswitch.ForPorts(256)
	return closedLoopCore(geom, 4*geom.Ports(), 1024)
}

// coreSaturated returns host ns per packet hop at saturation, and the
// share of hops that were deflections over the fixed warm-up (useful
// against attempted work; simulated, so it repeats exactly).
func coreSaturated(c driverCtx) []float64 {
	core := saturatedCore()
	warm := core.Stats()
	perHop := perUnit(c.d, func() int64 { return step64(core) })
	return []float64{perHop, float64(warm.TotalDeflected) / float64(warm.TotalHops)}
}

// sinkVIC is a VIC whose fabric discards packets, isolating the VIC's own
// cost from the switch model's.
func sinkVIC(k *sim.Kernel) *vic.VIC {
	v := vic.New(k, 0, 0, vic.DefaultParams(), func(dvswitch.Packet) {})
	v.SetBatchInject(func([]dvswitch.Packet) {})
	return v
}

// vicSend sends 512-word cached-DMA bursts into a sink, through
// VIC.HostSend directly or through dv.Endpoint.Scatter. Returns ns per word.
func vicSend(d time.Duration, viaEndpoint bool) []float64 {
	const burst = 512
	k := sim.NewKernel()
	v := sinkVIC(k)
	e := dv.NewEndpoint(v, 0, 2)
	words := make([]vic.Word, burst)
	for i := range words {
		words[i].Dst, words[i].Op, words[i].GC = 1, vic.OpWrite, vic.NoGC
		words[i].Addr, words[i].Val = uint32(i), uint64(i)
	}
	var perWord float64
	k.Spawn("send", func(p *sim.Proc) {
		e.Bind(p)
		send := func() int64 {
			if viaEndpoint {
				e.Scatter(vic.DMACached, words)
			} else {
				v.HostSend(p, vic.DMACached, words)
			}
			return burst
		}
		send() // fill the batch pools
		perWord = perUnit(d, send)
	})
	k.Run()
	return []float64{perWord}
}

// vicEject delivers 512-packet bursts into a VIC and runs the kernel until
// they have landed in DV memory. Returns ns per packet.
func vicEject(c driverCtx) []float64 {
	const burst = 512
	k := sim.NewKernel()
	v := sinkVIC(k)
	pkts := make([]dvswitch.Packet, burst)
	for i := range pkts {
		pkts[i].Src = 1
		pkts[i].Header = vic.EncodeHeader(0, vic.OpWrite, vic.NoGC, uint32(i))
		pkts[i].Payload = uint64(i)
	}
	deliver := func() int64 {
		for i := range pkts {
			v.Receive(pkts[i])
		}
		k.RunUntil(sim.Forever)
		return burst
	}
	deliver()
	return []float64{perUnit(c.d, deliver)}
}

// ibTransfer reserves 4 KiB messages between random pairs of a 32-node fat
// tree and fires their arrivals. Returns ns per message.
func ibTransfer(c driverCtx) []float64 {
	const nodes, batch = 32, 256
	k := sim.NewKernel()
	f := ib.New(k, nodes, ib.DefaultParams())
	rng := sim.NewRNG(9)
	onArrive := func() {}
	return []float64{perUnit(c.d, func() int64 {
		for i := 0; i < batch; i++ {
			f.Transfer(rng.Intn(nodes), rng.Intn(nodes), 4096, onArrive)
		}
		k.RunUntil(sim.Forever)
		return batch
	})}
}

// mpiAlltoall runs 32 bound ranks through rounds of Alltoall with 64-byte
// blocks, the exchange of the MPI GUPS. Returns ns per point-to-point
// message, rank set-up included (under 1 % of a batch).
func mpiAlltoall(c driverCtx) []float64 {
	const ranks, rounds = 32, 16
	blocks := make([][]byte, ranks)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
	}
	return []float64{perUnit(c.d, func() int64 {
		k := sim.NewKernel()
		w := mpi.NewWorld(k, ib.New(k, ranks, ib.DefaultParams()), mpi.DefaultParams())
		for r := 0; r < ranks; r++ {
			rank := r
			k.Spawn("rank", func(p *sim.Proc) {
				cm := w.Bind(rank, p)
				for i := 0; i < rounds; i++ {
					cm.Alltoall(blocks)
				}
			})
		}
		k.Run()
		return rounds * ranks * (ranks - 1)
	})}
}

// clusterSetup builds and tears down a 32-node cluster around an empty
// body. Returns host us per cluster.Run.
func clusterSetup(d time.Duration, stack cluster.Stack) []float64 {
	cfg := cluster.DefaultConfig(32)
	cfg.Stacks = stack
	return []float64{perUnit(d, func() int64 {
		cluster.Run(cfg, func(*cluster.Node) {})
		return 1
	}) / 1e3}
}

var sinkEdge int64 // keeps the compiler from discarding the generated edges

// bfsGen generates Kronecker edges, the host compute the BFS run spends
// most of its time in. Returns ns per edge.
func bfsGen(c driverCtx) []float64 {
	var next int64
	return []float64{perUnit(c.d, func() int64 {
		for i := 0; i < 4096; i++ {
			u, v := bfs.GenerateEdge(c.seed, 16, next)
			sinkEdge += u ^ v
			next++
		}
		return 4096
	})}
}

// fftPoints runs the local forward transform the distributed FFT calls on
// every row. Returns ns per point.
func fftPoints(c driverCtx) []float64 {
	const n = 1 << 15
	x := make([]complex128, n)
	rng := sim.NewRNG(c.seed)
	return []float64{perUnit(c.d, func() int64 {
		for i := range x {
			x[i] = complex(rng.Float64(), rng.Float64())
		}
		fftkernel.Forward(x)
		return n
	})}
}

// obsOnOff runs the GUPS workload with the four instrumentation consumers
// off and on. Returns on/off wall time and allocation.
func obsOnOff(c driverCtx) []float64 {
	off, err := runOnce(gupsInstance(comm.DV, 14, c.seed, c.shrink, false), nil)
	if err != nil {
		panic(err) // unreachable: only profiling can fail
	}
	on, err := runOnce(gupsInstance(comm.DV, 14, c.seed, c.shrink, true), nil)
	if err != nil {
		panic(err)
	}
	return []float64{on.wallS / off.wallS, on.allocMB / off.allocMB}
}

// modelError is the fidelity of the default switch engine on one set of
// inputs: the difference in simulated run time between the fast model and
// the cycle-accurate core, in % of the core's. elapsed runs the inputs on
// one model and returns 0 if the outputs were wrong. Under its home
// workload, whose own runs are the ownCycle side, only the twin is run.
func modelError(c driverCtx, ownCycle bool, elapsed func(cycleAccurate bool) sim.Time) []float64 {
	on := func(cycleAccurate bool) sim.Time {
		if c.home && cycleAccurate == ownCycle {
			return c.elapsed
		}
		return elapsed(cycleAccurate)
	}
	fast, cycle := on(false), on(true)
	if fast == 0 || cycle == 0 {
		return []float64{math.NaN()} // reported as not measured: the pass fails
	}
	return []float64{math.Abs(float64(fast-cycle)) / float64(cycle) * 100}
}

// gupsModelError: shallow queues, where the fast model is close.
func gupsModelError(c driverCtx) []float64 {
	return modelError(c, false, func(cycleAccurate bool) sim.Time {
		par := gupsParams(14, c.seed, c.shrink)
		par.CycleAccurate = cycleAccurate
		res := gups.Run(comm.DV, par)
		if gups.Verify(par, res) != 0 {
			return 0
		}
		return res.Report.Elapsed
	})
}

// a2aModelError: the saturated fabric, where it is not.
func a2aModelError(c driverCtx) []float64 {
	return modelError(c, true, func(cycleAccurate bool) sim.Time {
		nodes, words := a2aSize(c.shrink)
		rep, bad := a2aRun(c.seed, nodes, words, cycleAccurate)
		if bad != 0 {
			return 0
		}
		return rep.Cluster.Elapsed
	})
}
