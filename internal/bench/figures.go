package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/barrier"
	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/snap"
	"repro/internal/apps/vorticity"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig3 regenerates Figure 3 from one ping-pong sweep: bandwidth versus
// message size for the four transfer configurations (a), and the same runs
// as a percentage of each network's nominal peak (b).
func Fig3(opt Options) (a, b *Table) {
	a = &Table{
		ID:      "fig3a",
		Title:   "Ping-pong bandwidth vs message size (GB/s)",
		Columns: []string{"words", "DWr/NoCached", "DWr/Cached", "DMA/Cached", "MPI"},
		Notes: []string{
			"paper: direct writes plateau at the PCIe lane (~0.25/0.5 GB/s); DMA/Cached reaches 99.4% of the 4.4 GB/s peak at 256Ki words; MPI peaks near 72% of 6.8 GB/s and leads at 32-128 and >=512 words",
		},
	}
	b = &Table{
		ID:      "fig3b",
		Title:   "Ping-pong bandwidth as % of nominal peak",
		Columns: []string{"words", "DWr/NoCached", "DWr/Cached", "DMA/Cached", "MPI"},
		Notes: []string{
			"peaks: Data Vortex 4.4 GB/s, FDR InfiniBand 6.8 GB/s (paper values)",
		},
	}
	maxWords := 1 << 18
	iters := 40
	if opt.Small {
		maxWords = 1 << 12
		iters = 8
	}
	var sizes []int
	for words := 1; words <= maxWords; words *= 4 {
		sizes = append(sizes, words)
	}
	modes := []pingpong.Mode{pingpong.DVWrNoCached, pingpong.DVWrCached, pingpong.DVDMACached, pingpong.MPIIB}
	p := SweepRows(opt, a.ID, len(sizes)*len(modes), 2, func(i int) []Cell {
		words, it := sizes[i/len(modes)], iters
		if words >= 1<<14 {
			it = 6
		}
		r := pingpong.Run(modes[i%len(modes)], pingpong.Params{Words: words, Iters: it})
		return []Cell{Num(r.Bandwidth/1e9, 3, None), Num(r.PercentPeak(), 1, Percent)}
	})
	for i := 0; i < len(p); i += len(modes) {
		ra, rb := []Cell{Int(sizes[i/len(modes)])}, []Cell{Int(sizes[i/len(modes)])}
		for _, c := range p[i : i+len(modes)] {
			ra, rb = append(ra, c[0]), append(rb, c[1])
		}
		a.AddRow(ra...)
		b.AddRow(rb...)
	}
	return a, b
}

// Fig3a is Figure 3's bandwidth panel (see Fig3).
func Fig3a(opt Options) *Table { a, _ := Fig3(opt); return a }

// Fig3b is Figure 3's percentage-of-peak panel (see Fig3).
func Fig3b(opt Options) *Table { _, b := Fig3(opt); return b }

// Fig4 regenerates Figure 4: global barrier latency at scale for the DV
// intrinsic barrier, the in-house Fast Barrier, and MPI over InfiniBand.
func Fig4(opt Options) *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Global barrier latency vs node count (us)",
		Columns: []string{"nodes", "Data Vortex", "Fast Barrier", "Infiniband"},
		Notes: []string{
			"paper: MPI barrier grows steeply past 8 nodes (~12us at 32); both Data Vortex barriers stay flat at a few us",
		},
	}
	iters := 200
	if opt.Small {
		iters = 30
	}
	nodes := opt.nodeSweep(2)
	impls := []barrier.Impl{barrier.DVIntrinsic, barrier.DVFastBarrier, barrier.MPIBarrier}
	p := SweepRows(opt, t.ID, len(nodes)*len(impls), 1, func(i int) []Cell {
		r := barrier.Run(impls[i%len(impls)], nodes[i/len(impls)], iters)
		return []Cell{Num(r.Latency.Micros(), 3, None)}
	})
	for i := 0; i < len(p); i += len(impls) {
		t.AddRow(Int(nodes[i/len(impls)]), p[i][0], p[i+1][0], p[i+2][0])
	}
	return t
}

// Fig5 regenerates Figure 5: an execution trace of the MPI GUPS
// implementation, showing compute intervals and the unaggregatable message
// pattern. The trace CSV is written to w (when non-nil); the returned table
// summarises it.
func Fig5(opt Options, w io.Writer) *Table {
	t, log := Fig5Trace(opt)
	if w != nil {
		if err := log.WriteCSV(w); err != nil {
			panic(err)
		}
	}
	return t
}

// Fig5Trace runs Figure 5's traced GUPS and returns its summary table and the
// trace itself, for any of the trace package's writers.
func Fig5Trace(opt Options) (*Table, *trace.Log) {
	par := gups.Params{Nodes: 4, TableWordsNode: 1 << 12, UpdatesPerNode: 1 << 11,
		Platform: cluster.Platform{Attr: &attr.Config{Trace: true}}}
	if opt.Small {
		par.UpdatesPerNode = 1 << 9
	}
	rec, err := gups.Run(comm.IB, par).Report.Attr.Trace()
	if err != nil {
		panic(err)
	}
	states, msgs, span := rec.Summary()
	t := &Table{
		ID:      "fig5",
		Title:   "GUPS execution trace summary (full trace written as CSV)",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"paper: the Extrae trace shows no exploitable regularity for destination aggregation; every interval mixes messages to many destinations",
		},
	}
	t.AddRow(Text("state intervals"), Int(states))
	t.AddRow(Text("messages"), Int(msgs))
	t.AddRow(Text("span"), Dur(span))
	// Destination mixing: count distinct destinations per 64-message window.
	window, distinct, windows := 0, map[int]bool{}, 0
	mixed := 0
	for _, m := range rec.Messages {
		distinct[m.Dst] = true
		window++
		if window == 64 {
			windows++
			if len(distinct) > 1 {
				mixed++
			}
			window, distinct = 0, map[int]bool{}
		}
	}
	if windows > 0 {
		t.AddRow(Text("windows with mixed destinations"), Text(fmt.Sprintf("%d/%d", mixed, windows)))
	}
	return t, rec
}

// Fig6 regenerates Figure 6: GUPS per processing element (a) and aggregate
// (b) versus node count.
func Fig6(opt Options) (a, b *Table) {
	a = &Table{
		ID:      "fig6a",
		Title:   "GUPS per processing element (MUPS)",
		Columns: []string{"nodes", "Data Vortex", "Infiniband"},
		Notes: []string{
			"paper: DV stays near-flat (~35-40 MUPS/PE, small dip 4->8); IB decays steadily from 4 to 32 nodes",
		},
	}
	b = &Table{
		ID:      "fig6b",
		Title:   "Aggregate GUPS (MUPS)",
		Columns: []string{"nodes", "Data Vortex", "Infiniband"},
		Notes: []string{
			"paper: aggregate gap widens with node count (DV ~1200 MUPS at 32 nodes)",
		},
	}
	par := gups.Params{TableWordsNode: 1 << 16, UpdatesPerNode: 1 << 14}
	if opt.Small {
		par.TableWordsNode = 1 << 12
		par.UpdatesPerNode = 1 << 11
	}
	nodes := opt.nodeSweep(4)
	p := SweepRows(opt, a.ID, 2*len(nodes), 2, func(i int) []Cell {
		par := par
		par.Nodes = nodes[i/2]
		r := gups.Run(bothNets[i%2], par)
		return []Cell{Num(r.MUPSPerNode(), 2, None), Num(r.MUPS(), 1, None)}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib := p[i], p[i+1]
		a.AddRow(Int(nodes[i/2]), dv[0], ib[0])
		b.AddRow(Int(nodes[i/2]), dv[1], ib[1])
	}
	return a, b
}

// bothNets is the order a point pair runs the two stacks in: the Data Vortex
// at the even index, InfiniBand at the odd one.
var bothNets = [2]comm.Net{comm.DV, comm.IB}

// Fig7 regenerates Figure 7: distributed FFT aggregate GFLOPS at scale.
func Fig7(opt Options) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "FFT-1D aggregate GFLOPS vs node count",
		Columns: []string{"nodes", "Data Vortex", "Infiniband"},
		Notes: []string{
			"paper: DV above IB with a gap that widens with node count (paper runs 2^33 points; this harness scales the size down, preserving the scaling shape)",
		},
	}
	logN := 20
	if opt.Small {
		logN = 14
	}
	nodes := opt.nodeSweep(2)
	p := SweepRows(opt, t.ID, 2*len(nodes), 1, func(i int) []Cell {
		return []Cell{Num(fft.Run(bothNets[i%2], fft.Params{Nodes: nodes[i/2], LogN: logN}).GFLOPS(), 2, None)}
	})
	for i := 0; i < len(p); i += 2 {
		t.AddRow(Int(nodes[i/2]), p[i][0], p[i+1][0])
	}
	return t
}

// Fig8 regenerates Figure 8: Graph500 harmonic-mean TEPS at scale.
func Fig8(opt Options) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "Graph500 harmonic mean TEPS (MTEPS) vs node count",
		Columns: []string{"nodes", "Data Vortex", "Infiniband"},
		Notes: []string{
			"paper: DV consistently above IB, gap widening with node count",
		},
	}
	par := bfs.Params{Scale: 15, EdgeFactor: 8, NRoots: 4}
	if opt.Small {
		par.Scale = 12
		par.NRoots = 2
	}
	nodes := opt.nodeSweep(2)
	p := SweepRows(opt, t.ID, 2*len(nodes), 1, func(i int) []Cell {
		par := par
		par.Nodes = nodes[i/2]
		return []Cell{Num(bfs.Run(bothNets[i%2], par).HarmonicMeanTEPS()/1e6, 1, None)}
	})
	for i := 0; i < len(p); i += 2 {
		t.AddRow(Int(nodes[i/2]), p[i][0], p[i+1][0])
	}
	return t
}

// Fig9 regenerates Figure 9: application speedup of the Data Vortex ports
// over the MPI/InfiniBand implementations at 32 nodes.
func Fig9(opt Options) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Application speedup, Data Vortex vs MPI-over-InfiniBand",
		Columns: []string{"application", "DV time", "IB time", "speedup"},
		Notes: []string{
			"paper at 32 nodes: SNAP 1.19x (best-effort port), Vorticity and Heat 2.46x-3.41x (aggressively restructured)",
		},
	}
	nodes := 32
	sp := snap.Params{Nodes: nodes, NX: 16, NY: 16, NZ: 16, MaxIters: 6}
	vp := vorticity.Params{Nodes: nodes, N: 128, Steps: 4}
	hp := heat.Params{Nodes: nodes, N: 16, Steps: 20}
	if opt.Small {
		nodes = 8
		sp = snap.Params{Nodes: nodes, NX: 8, NY: 8, NZ: 8, MaxIters: 3}
		vp = vorticity.Params{Nodes: nodes, N: 64, Steps: 2}
		hp = heat.Params{Nodes: nodes, N: 16, Steps: 5}
	}
	apps := []struct {
		name string
		run  func(comm.Net) sim.Time
	}{
		{"SNAP", func(net comm.Net) sim.Time { return snap.Run(net, sp).Elapsed }},
		{"Vorticity", func(net comm.Net) sim.Time { return vorticity.Run(net, vp).Elapsed }},
		{"Heat", func(net comm.Net) sim.Time { return heat.Run(net, hp).Elapsed }},
	}
	p := SweepRows(opt, t.ID, 2*len(apps), 1, func(i int) []Cell {
		return []Cell{Dur(apps[i/2].run(bothNets[i%2]))}
	})
	for i := 0; i < len(p); i += 2 {
		dv, ib := p[i][0], p[i+1][0]
		t.AddRow(Text(apps[i/2].name), dv, ib, speedup(ib, dv))
	}
	return t
}

// speedup is how many times longer slow took than fast, two Duration cells,
// as a Ratio cell.
func speedup(slow, fast Cell) Cell {
	return Num(slow.V/fast.V, 2, Ratio)
}
