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
	for _, row := range SweepRows(opt, t.ID, len(pts), len(t.Columns), func(i int) []Cell {
		pt := pts[i]
		st := drive(dvswitch.NewCore(dvswitch.Params{Heights: 8, Angles: 4}),
			dvswitch.Traffic{Pattern: pt.pattern, Load: pt.load, Hot: 13, QueueCap: 8},
			sim.NewRNG(uint64(len(pt.pattern))*131+uint64(pt.load*100)), cycles)
		thr := float64(st.Delivered) / float64(cycles) / 32
		return []Cell{Text(pt.pattern), Num(pt.load, 1, None), Num(thr, 3, None),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99)),
			Num(st.MeanDeflections(), 2, None)}
	}) {
		t.AddRow(row...)
	}
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
	for _, row := range SweepRows(opt, t.ID, len(heights), len(t.Columns), func(i int) []Cell {
		p := dvswitch.Params{Heights: heights[i], Angles: 4}
		ports := p.Ports()
		st := drive(dvswitch.NewCore(p), dvswitch.Traffic{Load: 0.5, QueueCap: 3}, sim.NewRNG(uint64(heights[i])), cycles)
		return []Cell{Int(ports), Int(p.Cylinders()),
			Num(st.MeanLatency(), 1, None),
			Num(float64(st.Delivered)/float64(cycles)/float64(ports), 3, None)}
	}) {
		t.AddRow(row...)
	}
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
	batches := []int{1024, 64, 8}
	// Header caching and DMA: ping-pong plateau per mode.
	words := 1 << 14
	iters := 10
	if opt.Small {
		words = 1 << 10
	}
	modes := []pingpong.Mode{pingpong.DVWrNoCached, pingpong.DVWrCached, pingpong.DVDMACached}
	for _, row := range SweepRows(opt, t.ID, len(batches)+len(modes), len(t.Columns), func(i int) []Cell {
		if i < len(batches) {
			gp := gp
			gp.BatchWords = batches[i]
			return []Cell{Text("source aggregation"), Text(fmt.Sprintf("batch=%d", batches[i])),
				Text("MUPS/PE"), Num(gups.Run(comm.DV, gp).MUPSPerNode(), 2, None)}
		}
		m := modes[i-len(batches)]
		r := pingpong.Run(m, pingpong.Params{Words: words, Iters: iters})
		return []Cell{Text("host-to-VIC path"), Text(m.String()), Text("GB/s"), Num(r.Bandwidth/1e9, 3, None)}
	}) {
		t.AddRow(row...)
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
	// The first 2·len(counts) points are GUPS in MUPS, the rest BFS in TEPS
	// (its rows show MTEPS), each a Data Vortex and InfiniBand pair per node
	// count.
	p := SweepRows(opt, t.ID, 4*len(counts), 1, func(i int) []Cell {
		n, net := counts[i/2%len(counts)], bothNets[i%2]
		if i < 2*len(counts) {
			par := gups.Params{Nodes: n, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 12}
			return []Cell{Num(gups.Run(net, par).MUPS(), 1, None)}
		}
		par := bfs.Params{Nodes: n, Scale: 14, EdgeFactor: 8, NRoots: 2}
		return []Cell{Num(bfs.Run(net, par).HarmonicMeanTEPS(), 0, None)}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib, n := p[i][0], p[i+1][0], Int(counts[i/2%len(counts)])
		if i < 2*len(counts) {
			t.AddRow(Text("GUPS (MUPS)"), n, dv, ib, Num(dv.V/ib.V, 2, Ratio))
		} else {
			t.AddRow(Text("BFS (MTEPS)"), n, Num(dv.V/1e6, 1, None), Num(ib.V/1e6, 1, None),
				Num(dv.V/ib.V, 2, Ratio))
		}
	}
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
	fp := fft.Params{Nodes: n, LogN: 18}
	if opt.Small {
		fp.LogN = 14
	}
	// The adaptive and Data Vortex runs of a kernel share one Params with
	// IBAdaptive set.
	ga, fa := gp, fp
	ga.IBAdaptive, fa.IBAdaptive = true, true
	runs := []func() float64{
		func() float64 { return gups.Run(comm.IB, gp).MUPS() },
		func() float64 { return gups.Run(comm.IB, ga).MUPS() },
		func() float64 { return gups.Run(comm.DV, ga).MUPS() },
		func() float64 { return fft.Run(comm.IB, fp).GFLOPS() },
		func() float64 { return fft.Run(comm.IB, fa).GFLOPS() },
		func() float64 { return fft.Run(comm.DV, fa).GFLOPS() },
	}
	kernels := []string{"GUPS (MUPS)", "FFT (GFLOPS)"}
	p := SweepRows(opt, t.ID, len(runs), 1, func(i int) []Cell { return []Cell{Num(runs[i](), 1, None)} })
	for i := 0; i < len(p); i += 3 {
		t.AddRow(Text(kernels[i/3]), Int(n), p[i][0], p[i+1][0], p[i+2][0])
	}
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
	rails := []int{1, 2, 4}
	for _, row := range SweepRows(opt, t.ID, len(rails)+1, len(t.Columns), func(i int) []Cell {
		name, mode, par := "MPI over FDR InfiniBand", pingpong.MPIIB, pingpong.Params{Words: words, Iters: iters}
		if i < len(rails) {
			name, mode = fmt.Sprintf("DV DMA/Cached, %d rail(s)", rails[i]), pingpong.DVDMACached
			par.Platform = cluster.Platform{VICsPerNode: rails[i]}
		}
		r := pingpong.Run(mode, par)
		return []Cell{Text(name), Num(r.Bandwidth/1e9, 2, None), Num(100*r.Bandwidth/4.4e9, 0, Percent)}
	}) {
		t.AddRow(row...)
	}
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
	p := SweepRows(opt, t.ID, 2*len(counts), 1, func(i int) []Cell {
		par := pagerank.Params{Nodes: counts[i/2], Scale: scale, EdgeFactor: 8, MaxIters: 10, Tol: 0}
		return []Cell{Dur(pagerank.Run(bothNets[i%2], par).Elapsed)}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib := p[i][0], p[i+1][0]
		t.AddRow(Int(counts[i/2]), dv, ib, speedup(ib, dv))
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
	for _, row := range SweepRows(opt, t.ID, len(deads), len(t.Columns), func(i int) []Cell {
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
	}) {
		t.AddRow(row...)
	}
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
	// A point is a run's elapsed time and its node 0's ghost-word count.
	p := SweepRows(opt, t.ID, 2*len(counts), 2, func(i int) []Cell {
		r := spmv.Run(bothNets[i%2], spmv.Params{Nodes: counts[i/2], Scale: scale, EdgeFactor: 6, Iters: 4})
		return []Cell{Dur(r.Elapsed), Int(r.GhostWords)}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib := p[i], p[i+1]
		t.AddRow(Int(counts[i/2]), dv[0], ib[0], speedup(ib[0], dv[0]), dv[1])
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
	// Points 0 and 1 are the global references, MPI and the DV intrinsic;
	// point 2+k is group size gsizes[k].
	gsizes := []int{2, 4, 8, nodes}
	p := SweepRows(opt, t.ID, 2+len(gsizes), 1, func(i int) []Cell {
		var lat sim.Time
		switch i {
		case 0:
			lat = barrier.Run(barrier.MPIBarrier, nodes, iters).Latency
		case 1:
			lat = barrier.Run(barrier.DVIntrinsic, nodes, iters).Latency
		default:
			lat = subsetBarrierLatency(nodes, gsizes[i-2], iters)
		}
		return []Cell{Num(lat.Micros(), 3, Micros)}
	})
	for i := 2; i < len(p); i++ {
		t.AddRow(Int(gsizes[i-2]), p[i][0], p[1][0], p[0][0])
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
	p := SweepRows(opt, t.ID, 2*len(counts), 2, func(i int) []Cell {
		r := sortapp.Run(bothNets[i%2], sortapp.Params{Nodes: counts[i/2], KeysPerNode: keys})
		return []Cell{Num(r.SortedRate()/1e6, 1, MkeysPerSec), Dur(r.Elapsed)}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib := p[i], p[i+1]
		t.AddRow(Int(counts[i/2]), dv[0], ib[0], speedup(ib[1], dv[1]))
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
	for _, row := range SweepRows(opt, t.ID, len(hs), len(t.Columns), func(i int) []Cell {
		p := dvswitch.Params{Heights: hs[i], Angles: 4}
		const endpoints = 32
		st := drive(dvswitch.NewCore(p), dvswitch.Traffic{Load: 0.9, Sources: endpoints,
			Stride: p.Ports() / endpoints, QueueCap: 3}, sim.NewRNG(31), cycles)
		return []Cell{Int(p.Ports()),
			Num(float64(st.Delivered)/float64(cycles)/endpoints, 3, None),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99))}
	}) {
		t.AddRow(row...)
	}
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
	apps := []func(n int, net comm.Net) sim.Time{
		func(n int, net comm.Net) sim.Time {
			return snap.Run(net, snap.Params{Nodes: n, NX: 16, NY: 16, NZ: 16, MaxIters: 4}).Elapsed
		},
		func(n int, net comm.Net) sim.Time {
			return vorticity.Run(net, vorticity.Params{Nodes: n, N: 128, Steps: 3}).Elapsed
		},
		func(n int, net comm.Net) sim.Time {
			return heat.Run(net, heat.Params{Nodes: n, N: 16, Steps: 10}).Elapsed
		},
	}
	// Point i runs app i/2%3 at node count i/6 on bothNets[i%2].
	p := SweepRows(opt, t.ID, 2*len(apps)*len(counts), 1, func(i int) []Cell {
		return []Cell{Dur(apps[i/2%len(apps)](counts[i/(2*len(apps))], bothNets[i%2]))}
	})
	for i := 0; i < len(p); i += 2 * len(apps) {
		row := []Cell{Int(counts[i/(2*len(apps))])}
		for k := i; k < i+2*len(apps); k += 2 {
			row = append(row, speedup(p[k+1][0], p[k][0]))
		}
		t.AddRow(row...)
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
	{ID: "fig3a", Aliases: []string{"fig3b", "fig3"}, Desc: "ping-pong bandwidth and % of peak (both panels)",
		Run: func(opt Options, _ func(*trace.Log)) []*Table {
			a, b := Fig3(opt)
			return []*Table{a, b}
		}},
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
