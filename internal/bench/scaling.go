package bench

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/apps/bfs"
	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// ExtScalingCrossover is extension S: the scaling-crossover study the
// generalized geometry unlocks. Each row runs one irregular kernel at a node
// count, on the ForPorts-derived switch (one cylinder per doubling), across
// three fabrics: the single-plane Data Vortex, a two-plane Data Vortex
// (deterministic pair-hash plane assignment), and MPI over a full-bisection
// fat tree sized by ib.ForNodes — the honest InfiniBand baseline at scale,
// since the paper's fixed 8x2 testbed tree would be 4:1 oversubscribed and
// flatter deflection routing.
func ExtScalingCrossover(opt Options) *Table {
	t := &Table{
		ID:    "extS",
		Title: "Scaling crossover: DV single/multi-plane vs full-bisection fat tree",
		Columns: []string{"kernel", "nodes", "switch", "DV 1-plane", "DV 2-plane",
			"IB fat tree", "best DV/IB"},
		Notes: []string{
			"switch geometry follows dvswitch.ForPorts (HxA/cylinders); IB uses ib.ForNodes full bisection so the baseline never oversubscribes",
			"2-plane rows stripe traffic over two fabrics behind each VIC with the deterministic pair-hash policy; results are bit-reproducible on every fabric",
		},
	}
	counts := []int{32, 64, 128, 256}
	gupsUpd := 1 << 12
	bfsScale := 13
	a2aWords := 64
	a2aRounds := 4
	if opt.Small {
		counts = []int{8, 16}
		gupsUpd = 1 << 10
		bfsScale = 11
		a2aWords = 16
		a2aRounds = 2
	}
	// Point i runs kernel i/per at node count counts[i/3%len(counts)] on
	// fabric i%3: the single-plane Data Vortex, two planes, or the scaled fat
	// tree. A point is one raw reading: MUPS, TEPS, or a Duration per
	// exchange.
	kernels := []string{"GUPS (MUPS)", "BFS (MTEPS)", "alltoall (us/exch)"}
	per := 3 * len(counts)
	p := SweepRows(opt, t.ID, len(kernels)*per, 1, func(i int) []Cell {
		n, fabric := counts[i/3%len(counts)], i%3
		net, planes, scaled := comm.DV, 0, false
		switch fabric {
		case 1:
			planes = 2
		case 2:
			net, scaled = comm.IB, true
		}
		switch i / per {
		case 0: // GUPS: fine-grained random updates — the DV sweet spot.
			r := gups.Run(net, gups.Params{Nodes: n, TableWordsNode: 1 << 14, UpdatesPerNode: gupsUpd,
				Platform: cluster.Platform{DVPlanes: planes, IBScaled: scaled}})
			return []Cell{Num(r.MUPS(), 1, None)}
		case 1: // BFS: frontier exchanges of single-edge packets.
			r := bfs.Run(net, bfs.Params{Nodes: n, Scale: bfsScale, EdgeFactor: 8, NRoots: 1,
				Platform: cluster.Platform{DVPlanes: planes, IBScaled: scaled}})
			return []Cell{Num(r.HarmonicMeanTEPS(), 0, None)}
		default: // all-to-all: the bulk-exchange contrast case (lower is better).
			return []Cell{Dur(alltoallExchange(net, n, a2aWords, a2aRounds, planes, scaled))}
		}
	})
	for i := 0; i < len(p); i += 3 {
		n := counts[i/3%len(counts)]
		g := dvswitch.ForPorts(n)
		row := []Cell{Text(kernels[i/per]), Int(n), Text(fmt.Sprintf("%dx%d/C%d", g.Heights, g.Angles, g.Cylinders()))}
		d1, d2, ib := p[i][0], p[i+1][0], p[i+2][0]
		switch i / per {
		case 0:
			t.AddRow(append(row, d1, d2, ib, Num(max(d1.V, d2.V)/ib.V, 2, Ratio))...)
		case 1:
			t.AddRow(append(row, Num(d1.V/1e6, 1, None), Num(d2.V/1e6, 1, None), Num(ib.V/1e6, 1, None),
				Num(max(d1.V, d2.V)/ib.V, 2, Ratio))...)
		default:
			best := d1
			if d2.V < best.V {
				best = d2
			}
			us := func(c Cell) Cell { return Num(sim.Time(c.V).Micros(), 2, None) }
			t.AddRow(append(row, us(d1), us(d2), us(ib), speedup(ib, best))...)
		}
	}
	return t
}

// alltoallExchange times rounds personalized all-to-all exchanges of
// words*8 bytes per peer over the given fabric and returns the mean time of
// one exchange. planes > 1 stripes the Data Vortex side over that many
// switch planes; ibScaled selects the full-bisection fat tree.
func alltoallExchange(net comm.Net, nodes, words, rounds, planes int, ibScaled bool) sim.Time {
	spec := apprt.RunSpec{Net: net, Nodes: nodes,
		Platform: cluster.Platform{DVPlanes: planes, IBScaled: ibScaled}}
	rep := apprt.Execute(spec, func(n *cluster.Node, be comm.Backend) sim.Time {
		blocks := make([][]byte, nodes)
		for i := range blocks {
			b := make([]byte, words*8)
			for j := range b {
				b[j] = byte(n.ID ^ i ^ j)
			}
			blocks[i] = b
		}
		t0 := n.P.Now()
		for r := 0; r < rounds; r++ {
			be.Alltoall(blocks)
		}
		return n.P.Now() - t0
	})
	return rep.Elapsed / sim.Time(rounds)
}
