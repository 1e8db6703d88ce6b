package bench

import (
	"fmt"

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
		st := runTraffic(pt.pattern, pt.load, cycles)
		thr := float64(st.Delivered) / float64(cycles) / 32
		return []Cell{Text(pt.pattern), Num(pt.load, 1, None), Num(thr, 3, None),
			Num(st.MeanLatency(), 1, None),
			Int(st.LatencyPercentile(99)),
			Num(st.MeanDeflections(), 2, None)}
	})
	return t
}

// runTraffic drives the cycle-accurate core with one synthetic pattern.
func runTraffic(pattern string, load float64, cycles int) dvswitch.Stats {
	p := dvswitch.Params{Heights: 8, Angles: 4}
	c := dvswitch.NewCore(p)
	c.Deliver = func(dvswitch.Packet, int64) {}
	rng := sim.NewRNG(uint64(len(pattern))*131 + uint64(load*100))
	ports := p.Ports()
	burstLeft := make([]int, ports)
	for cy := 0; cy < cycles; cy++ {
		for src := 0; src < ports; src++ {
			inject := rng.Float64() < load
			if pattern == "bursty" {
				// On/off bursts: bursts of 16 packets at full rate.
				if burstLeft[src] > 0 {
					inject = true
					burstLeft[src]--
				} else if rng.Float64() < load/16 {
					burstLeft[src] = 15
					inject = true
				} else {
					inject = false
				}
			}
			if !inject || c.QueueLen(src) > 8 {
				continue
			}
			dst := 0
			switch pattern {
			case "hotspot":
				// 25% of traffic to one port, rest uniform.
				if rng.Float64() < 0.25 {
					dst = 13
				} else {
					dst = rng.Intn(ports)
				}
			case "tornado":
				dst = (src + ports/2) % ports
			default:
				dst = rng.Intn(ports)
			}
			c.Inject(dvswitch.Packet{Src: src, Dst: dst})
		}
		c.Step()
	}
	c.RunUntilIdle(1 << 22)
	return c.Stats()
}

// offer drives c for cycles cycles with uniform random traffic among n
// endpoints stride ports apart: each cycle, every endpoint whose queue holds
// fewer than 4 packets injects with probability load, to an endpoint drawn at
// random. It then drains c and returns its stats.
func offer(c *dvswitch.Core, rng *sim.RNG, n, stride int, load float64, cycles int) dvswitch.Stats {
	c.Deliver = func(dvswitch.Packet, int64) {}
	for cy := 0; cy < cycles; cy++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < load && c.QueueLen(i*stride) < 4 {
				c.Inject(dvswitch.Packet{Src: i * stride, Dst: stride * rng.Intn(n)})
			}
		}
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
		st := offer(dvswitch.NewCore(p), sim.NewRNG(uint64(heights[i])), ports, 1, 0.5, cycles)
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
		st := offer(c, sim.NewRNG(23), p.Ports(), 1, 0.3, cycles)
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
		st := offer(dvswitch.NewCore(p), sim.NewRNG(31), endpoints, p.Ports()/endpoints, 0.9, cycles)
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

// All runs every experiment; the Figure 5 trace goes to traceOut when
// non-nil.
func All(opt Options, traceOut func(*trace.Log)) []*Table {
	tables := []*Table{Fig3a(opt), Fig3b(opt), Fig4(opt)}
	fig5, log := Fig5Trace(opt)
	if traceOut != nil {
		traceOut(log)
	}
	a6, b6 := Fig6(opt)
	return append(tables, fig5,
		a6, b6, Fig7(opt), Fig8(opt), Fig9(opt),
		ExtSwitchTraffic(opt), ExtScale(opt), ExtAblation(opt), ExtScaleApps(opt),
		ExtRouting(opt), ExtMultiRail(opt), ExtPageRank(opt), ExtFaults(opt),
		ExtSpMV(opt), ExtSubsetBarrier(opt), ExtSort(opt), ExtProvisioning(opt),
		ExtAppScaling(opt), ExtReliability(opt),
		ExtScalingCrossover(opt))
}
