package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps/barrier"
	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/apps/pagerank"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/snap"
	sortapp "repro/internal/apps/sort"
	"repro/internal/apps/spmv"
	"repro/internal/apps/vorticity"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExtSwitchTraffic is extension A: the cycle-accurate switch under
// synthetic traffic patterns, reproducing the qualitative robustness claims
// of the optical Data Vortex studies the paper cites ([14], [15]): latency
// and throughput stay well-behaved under nonuniform and bursty loads.
func ExtSwitchTraffic(opt Options) *Table {
	t := &Table{
		ID:      "extA",
		Title:   "Cycle-accurate switch under synthetic traffic (32-port, offered load sweep)",
		Columns: []string{"pattern", "offered", "throughput", "mean lat (cyc)", "p99 lat (cyc)", "mean defl"},
		Notes: []string{
			"refs [14][15]: the deflection fabric keeps robust throughput/latency under nonuniform and bursty traffic",
		},
	}
	cycles := 20000
	if opt.Small {
		cycles = 4000
	}
	type point struct {
		pattern string
		load    float64
	}
	var pts []point
	for _, pattern := range []string{"uniform", "hotspot", "tornado", "bursty"} {
		for _, load := range []float64{0.2, 0.5, 0.9} {
			pts = append(pts, point{pattern, load})
		}
	}
	SweepRows(opt, t, len(pts), func(i int) []Cell {
		pt := pts[i]
		st := drive(dvswitch.NewCore(dvswitch.Params{Heights: 8, Angles: 4}),
			dvswitch.Traffic{Pattern: pt.pattern, Load: pt.load, Hot: 13, QueueCap: 8},
			sim.NewRNG(uint64(len(pt.pattern))*131+uint64(pt.load*100)), cycles)
		thr := float64(st.Delivered) / float64(cycles) / 32
		return []Cell{Text(pt.pattern), Num(pt.load, 1, None), Num(thr, 3, None),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99)),
			Num(st.MeanDeflections(), 2, None)}
	})
	return t
}

// drive offers tr to c for cycles cycles, stepping c once a cycle, then
// drains c and returns its stats.
func drive(c *dvswitch.Core, tr dvswitch.Traffic, rng *sim.RNG, cycles int) dvswitch.Stats {
	for cy := 0; cy < cycles; cy++ {
		tr.Offer(c, rng, nil)
		c.Step()
	}
	c.RunUntilIdle(1 << 22)
	return c.Stats()
}

// ExtScale is extension B: the paper's §IX scale-out argument — each
// doubling of ports adds one cylinder, so unloaded latency grows only
// logarithmically while per-port throughput holds.
func ExtScale(opt Options) *Table {
	t := &Table{
		ID:      "extB",
		Title:   "Switch scale-out: ports vs cylinders, latency, per-port throughput",
		Columns: []string{"ports", "cylinders", "mean lat (cyc)", "throughput/port"},
		Notes: []string{
			"paper §IX: doubling nodes adds a cylinder; additional hops minimally increase latency and should not change per-node throughput",
		},
	}
	heights := []int{4, 8, 16, 32}
	if opt.Small {
		heights = []int{4, 8}
	}
	cycles := 8000
	if opt.Small {
		cycles = 2000
	}
	SweepRows(opt, t, len(heights), func(i int) []Cell {
		p := dvswitch.Params{Heights: heights[i], Angles: 4}
		ports := p.Ports()
		st := drive(dvswitch.NewCore(p), dvswitch.Traffic{Load: 0.5, QueueCap: 3}, sim.NewRNG(uint64(heights[i])), cycles)
		return []Cell{Int(ports), Int(p.Cylinders()),
			Num(st.MeanLatency(), 1, None),
			Num(float64(st.Delivered)/float64(cycles)/float64(ports), 3, None)}
	})
	return t
}

// ExtAblation is extension C: ablating the design choices the paper's
// analysis credits — source aggregation (GUPS batch size), header caching,
// and the DMA engine versus direct writes (ping-pong).
func ExtAblation(opt Options) *Table {
	t := &Table{
		ID:      "extC",
		Title:   "Ablations: source aggregation, header caching, DMA engine",
		Columns: []string{"ablation", "configuration", "metric", "value"},
		Notes: []string{
			"source aggregation amortises PCIe crossings (GUPS); cached headers halve PCIe traffic; the DMA engine lifts the PCIe-lane plateau to network peak",
		},
	}
	// Source aggregation: GUPS DV with shrinking batches.
	gp := gups.Params{Nodes: 8, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 13}
	if opt.Small {
		gp.UpdatesPerNode = 1 << 11
	}
	for _, batch := range []int{1024, 64, 8} {
		gp.BatchWords = batch
		r := gups.Run(comm.DV, gp)
		t.AddRow(Text("source aggregation"), Text(fmt.Sprintf("batch=%d", batch)),
			Text("MUPS/PE"), Num(r.MUPSPerNode(), 2, None))
	}
	// Header caching and DMA: ping-pong plateau per mode.
	words := 1 << 14
	iters := 10
	if opt.Small {
		words = 1 << 10
	}
	for _, m := range []pingpong.Mode{pingpong.DVWrNoCached, pingpong.DVWrCached, pingpong.DVDMACached} {
		r := pingpong.Run(m, pingpong.Params{Words: words, Iters: iters})
		t.AddRow(Text("host-to-VIC path"), Text(m.String()), Text("GB/s"), Num(r.Bandwidth/1e9, 3, None))
	}
	return t
}

// ExtScaleApps is extension D: projecting the irregular kernels beyond the
// paper's 32-node testbed (its §IX limitation) with the calibrated fast
// fabric model. The Data Vortex advantage should keep widening because the
// fabric is congestion-free while the fat tree's oversubscription deepens.
func ExtScaleApps(opt Options) *Table {
	t := &Table{
		ID:      "extD",
		Title:   "Projected scaling beyond the testbed: GUPS and BFS to 128 nodes",
		Columns: []string{"kernel", "nodes", "Data Vortex", "Infiniband", "DV/IB"},
		Notes: []string{
			"paper §IX: properties should be maintained when scaling up (one more cylinder per doubling); this projection uses the calibrated fast fabric model",
		},
	}
	counts := []int{32, 64, 128}
	if opt.Small {
		counts = []int{8, 16}
	}
	SweepRows(opt, t, 2*len(counts), func(i int) []Cell {
		n := counts[i%len(counts)]
		if i < len(counts) {
			par := gups.Params{Nodes: n, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 12}
			dv := gups.Run(comm.DV, par)
			ib := gups.Run(comm.IB, par)
			return []Cell{Text("GUPS (MUPS)"), Int(n),
				Num(dv.MUPS(), 1, None), Num(ib.MUPS(), 1, None),
				Num(dv.MUPS()/ib.MUPS(), 2, Ratio)}
		}
		par := bfs.Params{Nodes: n, Scale: 14, EdgeFactor: 8, NRoots: 2}
		dv := bfs.Run(comm.DV, par)
		ib := bfs.Run(comm.IB, par)
		return []Cell{Text("BFS (MTEPS)"), Int(n),
			Num(dv.HarmonicMeanTEPS()/1e6, 1, None),
			Num(ib.HarmonicMeanTEPS()/1e6, 1, None),
			Num(dv.HarmonicMeanTEPS()/ib.HarmonicMeanTEPS(), 2, Ratio)}
	})
	return t
}

// ExtRouting is extension E: how much of the InfiniBand side's trouble is
// the fat tree's static routing (the paper's ref [33])? Re-running the
// congestion-bound kernels with least-loaded adaptive spine selection
// quantifies it — adaptive routing recovers some throughput, but the
// message-rate and software costs keep the Data Vortex lead.
func ExtRouting(opt Options) *Table {
	t := &Table{
		ID:      "extE",
		Title:   "InfiniBand routing ablation: static vs adaptive spine selection",
		Columns: []string{"kernel", "nodes", "IB static", "IB adaptive", "Data Vortex"},
		Notes: []string{
			"ref [33] (Hoefler et al.): static multistage routing hurts unstructured traffic; adaptive routing narrows but does not close the gap",
		},
	}
	n := 32
	gp := gups.Params{Nodes: n, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 12}
	if opt.Small {
		n = 16
		gp.Nodes = n
		gp.UpdatesPerNode = 1 << 10
	}
	stat := gups.Run(comm.IB, gp)
	gp.IBAdaptive = true
	adpt := gups.Run(comm.IB, gp)
	dv := gups.Run(comm.DV, gp)
	t.AddRow(Text("GUPS (MUPS)"), Int(n),
		Num(stat.MUPS(), 1, None), Num(adpt.MUPS(), 1, None), Num(dv.MUPS(), 1, None))
	fp := fft.Params{Nodes: n, LogN: 18}
	if opt.Small {
		fp.LogN = 14
	}
	fs := fft.Run(comm.IB, fp)
	fp.IBAdaptive = true
	fa := fft.Run(comm.IB, fp)
	fd := fft.Run(comm.DV, fp)
	t.AddRow(Text("FFT (GFLOPS)"), Int(n),
		Num(fs.GFLOPS(), 1, None), Num(fa.GFLOPS(), 1, None), Num(fd.GFLOPS(), 1, None))
	return t
}

// ExtMultiRail is extension F: striping transfers across multiple VICs per
// node ("each node contains at least one VIC"). Two rails lift the
// large-transfer ceiling past FDR InfiniBand's; beyond that the host's PCIe
// staging rate becomes the bottleneck.
func ExtMultiRail(opt Options) *Table {
	t := &Table{
		ID:      "extF",
		Title:   "Multi-rail Data Vortex: ping-pong bandwidth vs rails per node",
		Columns: []string{"configuration", "GB/s", "vs single-rail peak"},
		Notes: []string{
			"single-rail peak 4.4 GB/s; MPI-over-FDR shown for reference",
		},
	}
	words := 1 << 16
	iters := 6
	if opt.Small {
		words = 1 << 12
	}
	for _, rails := range []int{1, 2, 4} {
		r := pingpong.Run(pingpong.DVDMACached, pingpong.Params{Words: words, Iters: iters,
			Platform: cluster.Platform{VICsPerNode: rails}})
		t.AddRow(Text(fmt.Sprintf("DV DMA/Cached, %d rail(s)", rails)),
			Num(r.Bandwidth/1e9, 2, None), Num(100*r.Bandwidth/4.4e9, 0, Percent))
	}
	m := pingpong.Run(pingpong.MPIIB, pingpong.Params{Words: words, Iters: iters})
	t.AddRow(Text("MPI over FDR InfiniBand"), Num(m.Bandwidth/1e9, 2, None),
		Num(100*m.Bandwidth/4.4e9, 0, Percent))
	return t
}

// ExtPageRank is extension G: a second data-analytics kernel (distributed
// PageRank on the Kronecker graphs), with the Data Vortex variant written
// entirely against the shmem PGAS layer — evidence that a software runtime
// of the kind the paper's related work surveys builds naturally on the VIC
// primitives without giving the advantage back.
func ExtPageRank(opt Options) *Table {
	t := &Table{
		ID:      "extG",
		Title:   "PageRank over the PGAS layer: time to 10 power iterations",
		Columns: []string{"nodes", "Data Vortex (shmem)", "Infiniband (MPI)", "speedup"},
		Notes: []string{
			"both variants converge to bit-identical ranks (asserted by tests); DV runs on one-sided puts + counting fence",
		},
	}
	counts := []int{8, 16, 32}
	scale := 13
	if opt.Small {
		counts = []int{4, 8}
		scale = 11
	}
	for _, n := range counts {
		par := pagerank.Params{Nodes: n, Scale: scale, EdgeFactor: 8, MaxIters: 10, Tol: 0}
		dv := pagerank.Run(comm.DV, par)
		ib := pagerank.Run(comm.IB, par)
		t.AddRow(Int(n), Dur(dv.Elapsed), Dur(ib.Elapsed), speedup(ib.Elapsed, dv.Elapsed))
	}
	return t
}

// ExtFaults is extension H: fault tolerance of the deflection fabric, in
// the spirit of the reliability analyses the paper cites (refs [12][13]).
// Dead switching nodes are routed around by deflection; only packets whose
// every legal move is dead are lost, and the fabric never deadlocks.
func ExtFaults(opt Options) *Table {
	t := &Table{
		ID:      "extH",
		Title:   "Fault injection: dead switching nodes vs delivery and latency",
		Columns: []string{"dead nodes", "delivered", "dropped", "mean lat (cyc)", "p99 lat (cyc)"},
		Notes: []string{
			"refs [12][13] analyse Data Vortex terminal reliability; deflection paths provide the redundancy",
		},
	}
	cycles := 6000
	if opt.Small {
		cycles = 1500
	}
	deads := []int{0, 1, 2, 4, 8}
	SweepRows(opt, t, len(deads), func(i int) []Cell {
		dead := deads[i]
		p := dvswitch.Params{Heights: 8, Angles: 4}
		c := dvswitch.NewCore(p)
		frng := sim.NewRNG(uint64(dead) + 17)
		for k := 0; k < dead; k++ {
			// Kill random mid-fabric nodes (not entry nodes: a dead entry
			// node takes its port down, a different failure class).
			cl := 1 + frng.Intn(p.Cylinders()-1)
			c.SetFaulty(cl, frng.Intn(p.Heights), frng.Intn(p.Angles), true)
		}
		st := drive(c, dvswitch.Traffic{Load: 0.3, QueueCap: 3}, sim.NewRNG(23), cycles)
		return []Cell{Int(dead),
			Num(100*float64(st.Delivered)/float64(st.Injected), 2, Percent),
			Int(st.Dropped),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99))}
	})
	return t
}

// ExtSpMV is extension I: distributed sparse matrix–vector multiplication,
// the fine-grained remote-READ workload (the intro's "transaction sizes of
// only a few bytes"). The DV variant gathers ghost entries with one batch
// of query packets per multiply — the owners' VICs answer without host
// involvement — versus MPI's owner-push ghost exchange.
func ExtSpMV(opt Options) *Table {
	t := &Table{
		ID:      "extI",
		Title:   "SpMV ghost gathers: query packets vs owner-push exchange",
		Columns: []string{"nodes", "Data Vortex", "Infiniband", "speedup", "ghosts@0"},
		Notes: []string{
			"query replies are assembled by the target VIC (\u00a7III's return-header packets); no remote host participates",
		},
	}
	counts := []int{8, 16, 32}
	scale := 13
	if opt.Small {
		counts = []int{4, 8}
		scale = 11
	}
	for _, n := range counts {
		par := spmv.Params{Nodes: n, Scale: scale, EdgeFactor: 6, Iters: 4}
		dv := spmv.Run(comm.DV, par)
		ib := spmv.Run(comm.IB, par)
		t.AddRow(Int(n), Dur(dv.Elapsed), Dur(ib.Elapsed), speedup(ib.Elapsed, dv.Elapsed),
			Int(dv.GhostWords))
	}
	return t
}

// ExtSubsetBarrier is extension J: the VIC's subset barriers ("hardware
// support for fast global and subset barriers", §V). Latency versus group
// size, with the intrinsic global barrier and MPI for reference.
func ExtSubsetBarrier(opt Options) *Table {
	t := &Table{
		ID:      "extJ",
		Title:   "Subset barriers: latency vs group size (32-node cluster)",
		Columns: []string{"group size", "DV subset", "DV global", "MPI global"},
		Notes: []string{
			"subsets use two ordinary group counters per group; any number of subsets can coexist",
		},
	}
	nodes := 32
	iters := 100
	if opt.Small {
		nodes = 8
		iters = 20
	}
	mpiLat := barrier.Run(barrier.MPIBarrier, nodes, iters).Latency
	dvLat := barrier.Run(barrier.DVIntrinsic, nodes, iters).Latency
	for _, gsize := range []int{2, 4, 8, nodes} {
		lat := subsetBarrierLatency(nodes, gsize, iters)
		t.AddRow(Int(gsize), Num(lat.Micros(), 3, Micros),
			Num(dvLat.Micros(), 3, Micros), Num(mpiLat.Micros(), 3, Micros))
	}
	return t
}

// subsetBarrierLatency measures the mean dv.Group barrier latency for the
// first gsize nodes of the cluster.
func subsetBarrierLatency(nodes, gsize, iters int) sim.Time {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Stacks = cluster.StackDV
	members := make([]int, gsize)
	for i := range members {
		members[i] = i
	}
	var lat sim.Time
	cluster.Run(cfg, func(n *cluster.Node) {
		if n.ID >= gsize {
			n.DV.Barrier() // participate in the global fence, then leave
			return
		}
		g := dv.NewGroup(n.DV, members)
		n.DV.Barrier() // global fence so every member is armed
		g.Barrier()
		t0 := n.P.Now()
		for i := 0; i < iters; i++ {
			g.Barrier()
		}
		if n.ID == 0 {
			lat = (n.P.Now() - t0) / sim.Time(iters)
		}
	})
	return lat
}

// ExtSort is extension K: the CONTRAST case. Sample sort "regularises" its
// exchange into large destination-aggregated blocks — the paper's
// conclusion predicts little to no Data Vortex benefit for such workloads,
// and this experiment shows exactly that (InfiniBand's higher stream
// bandwidth makes MPI competitive or better).
func ExtSort(opt Options) *Table {
	t := &Table{
		ID:      "extK",
		Title:   "Sample sort (regularised bulk exchange): the negative result",
		Columns: []string{"nodes", "Data Vortex", "Infiniband", "DV/IB"},
		Notes: []string{
			"paper conclusion: workloads regularised by destination aggregation show little to no DV improvement",
		},
	}
	counts := []int{8, 16, 32}
	keys := 1 << 15
	if opt.Small {
		counts = []int{4, 8}
		keys = 1 << 12
	}
	for _, n := range counts {
		par := sortapp.Params{Nodes: n, KeysPerNode: keys}
		dvr := sortapp.Run(comm.DV, par)
		ibr := sortapp.Run(comm.IB, par)
		t.AddRow(Int(n),
			Num(dvr.SortedRate()/1e6, 1, MkeysPerSec),
			Num(ibr.SortedRate()/1e6, 1, MkeysPerSec),
			speedup(ibr.Elapsed, dvr.Elapsed))
	}
	return t
}

// ExtProvisioning is extension L: holding 32 endpoints fixed while growing
// the switch. Fully-subscribed deflection fabrics saturate well below port
// capacity; spreading the same endpoints across a larger switch (the
// vendor-recommended deployment) recovers throughput and tightens latency.
func ExtProvisioning(opt Options) *Table {
	t := &Table{
		ID:      "extL",
		Title:   "Switch provisioning: 32 endpoints on larger fabrics (0.9 offered load)",
		Columns: []string{"switch ports", "throughput/endpoint", "mean lat (cyc)", "p99 lat (cyc)"},
		Notes: []string{
			"over-provisioning heights is the deflection-network counterpart of fat-tree uplink provisioning",
		},
	}
	cycles := 8000
	if opt.Small {
		cycles = 2000
	}
	hs := []int{8, 16, 32}
	SweepRows(opt, t, len(hs), func(i int) []Cell {
		p := dvswitch.Params{Heights: hs[i], Angles: 4}
		const endpoints = 32
		st := drive(dvswitch.NewCore(p), dvswitch.Traffic{Load: 0.9, Sources: endpoints,
			Stride: p.Ports() / endpoints, QueueCap: 3}, sim.NewRNG(31), cycles)
		return []Cell{Int(p.Ports()),
			Num(float64(st.Delivered)/float64(cycles)/endpoints, 3, None),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99))}
	})
	return t
}

// ExtAppScaling is extension M: the Figure 9 applications as scaling curves
// rather than single 32-node bars — how each port's speedup develops with
// node count (communication shares grow, so the restructured apps' edges
// widen while SNAP's stays modest).
func ExtAppScaling(opt Options) *Table {
	t := &Table{
		ID:      "extM",
		Title:   "Application speedup (DV vs MPI) across node counts",
		Columns: []string{"nodes", "SNAP", "Vorticity", "Heat"},
		Notes: []string{
			"figure 9 gives only the 32-node bars; these curves show how the speedups develop",
		},
	}
	counts := []int{4, 8, 16, 32}
	if opt.Small {
		counts = []int{4, 8}
	}
	for _, n := range counts {
		sp := snap.Params{Nodes: n, NX: 16, NY: 16, NZ: 16, MaxIters: 4}
		sd, si := snap.Run(comm.DV, sp), snap.Run(comm.IB, sp)
		vp := vorticity.Params{Nodes: n, N: 128, Steps: 3}
		vd, vi := vorticity.Run(comm.DV, vp), vorticity.Run(comm.IB, vp)
		hp := heat.Params{Nodes: n, N: 16, Steps: 10}
		hd, hi := heat.Run(comm.DV, hp), heat.Run(comm.IB, hp)
		t.AddRow(Int(n), speedup(si.Elapsed, sd.Elapsed), speedup(vi.Elapsed, vd.Elapsed),
			speedup(hi.Elapsed, hd.Elapsed))
	}
	return t
}

// Experiment is one dispatchable entry of the evaluation: a primary id,
// aliases, a short description, and the function that produces its tables.
// Figure 5 hands its trace to traceOut.
type Experiment struct {
	ID      string
	Aliases []string
	Desc    string
	Run     func(opt Options, traceOut func(*trace.Log)) []*Table
}

// one wraps a single-table experiment.
func one(f func(Options) *Table) func(Options, func(*trace.Log)) []*Table {
	return func(opt Options, _ func(*trace.Log)) []*Table {
		return []*Table{f(opt)}
	}
}

// Experiments is the evaluation in the order it runs. Every entry but the
// last, validate, makes up "all".
var Experiments = []Experiment{
	{ID: "fig3a", Desc: "ping-pong bandwidth", Run: one(Fig3a)},
	{ID: "fig3b", Desc: "ping-pong % of peak", Run: one(Fig3b)},
	{ID: "fig4", Desc: "barrier latency", Run: one(Fig4)},
	{ID: "fig5", Desc: "GUPS packet trace", Run: func(opt Options, traceOut func(*trace.Log)) []*Table {
		t, log := Fig5Trace(opt)
		traceOut(log)
		return []*Table{t}
	}},
	{ID: "fig6a", Aliases: []string{"fig6b", "fig6"}, Desc: "GUPS scaling (both panels)",
		Run: func(opt Options, _ func(*trace.Log)) []*Table {
			a, b := Fig6(opt)
			return []*Table{a, b}
		}},
	{ID: "fig7", Desc: "FFT-1D aggregate GFLOPS", Run: one(Fig7)},
	{ID: "fig8", Desc: "Graph500 BFS", Run: one(Fig8)},
	{ID: "fig9", Desc: "application speedup: SNAP, Vorticity, Heat", Run: one(Fig9)},
	{ID: "extA", Aliases: []string{"switch"}, Desc: "switch traffic study", Run: one(ExtSwitchTraffic)},
	{ID: "extB", Aliases: []string{"scale"}, Desc: "scaling study", Run: one(ExtScale)},
	{ID: "extC", Aliases: []string{"ablation"}, Desc: "calibration ablation", Run: one(ExtAblation)},
	{ID: "extD", Aliases: []string{"scaleapps"}, Desc: "projected GUPS and BFS scaling to 128 nodes", Run: one(ExtScaleApps)},
	{ID: "extE", Aliases: []string{"routing"}, Desc: "routing study", Run: one(ExtRouting)},
	{ID: "extF", Aliases: []string{"multirail"}, Desc: "multi-rail study", Run: one(ExtMultiRail)},
	{ID: "extG", Aliases: []string{"pagerank"}, Desc: "PageRank study", Run: one(ExtPageRank)},
	{ID: "extH", Aliases: []string{"faults"}, Desc: "fault injection study", Run: one(ExtFaults)},
	{ID: "extI", Aliases: []string{"spmv"}, Desc: "SpMV study", Run: one(ExtSpMV)},
	{ID: "extJ", Aliases: []string{"subset"}, Desc: "subset barrier study", Run: one(ExtSubsetBarrier)},
	{ID: "extK", Aliases: []string{"sort"}, Desc: "sample sort study", Run: one(ExtSort)},
	{ID: "extL", Aliases: []string{"provisioning"}, Desc: "provisioning study", Run: one(ExtProvisioning)},
	{ID: "extM", Aliases: []string{"appscaling"}, Desc: "application speedup across node counts", Run: one(ExtAppScaling)},
	{ID: "extN", Aliases: []string{"reliability"}, Desc: "reliability study", Run: one(ExtReliability)},
	{ID: "extS", Aliases: []string{"crossover"}, Desc: "scaling crossover: DV planes vs scaled fat tree", Run: one(ExtScalingCrossover)},
	{ID: "validate", Desc: "cross-variant validation", Run: one(Validate)},
}

// SelectExperiments resolves an experiment id: "all" is every experiment
// but validate, in table order; anything else is one experiment named by id
// or alias. Both match case-insensitively.
func SelectExperiments(id string) ([]Experiment, error) {
	if strings.EqualFold(id, "all") {
		return Experiments[:len(Experiments)-1], nil
	}
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) || slices.ContainsFunc(e.Aliases, func(a string) bool {
			return strings.EqualFold(a, id)
		}) {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
}
