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
	SweepRows(opt, t, 3*len(counts), func(i int) []Cell {
		n := counts[i%len(counts)]
		g := dvswitch.ForPorts(n)
		geom := Text(fmt.Sprintf("%dx%d/C%d", g.Heights, g.Angles, g.Cylinders()))
		switch i / len(counts) {
		case 0: // GUPS: fine-grained random updates — the DV sweet spot.
			par := gups.Params{Nodes: n, TableWordsNode: 1 << 14,
				UpdatesPerNode: gupsUpd}
			d1 := gups.Run(comm.DV, par)
			par.DVPlanes = 2
			d2 := gups.Run(comm.DV, par)
			par.DVPlanes = 0
			par.IBScaled = true
			ib := gups.Run(comm.IB, par)
			best := d1.MUPS()
			if d2.MUPS() > best {
				best = d2.MUPS()
			}
			return []Cell{Text("GUPS (MUPS)"), Int(n), geom,
				Num(d1.MUPS(), 1, None), Num(d2.MUPS(), 1, None),
				Num(ib.MUPS(), 1, None), Num(best/ib.MUPS(), 2, Ratio)}
		case 1: // BFS: frontier exchanges of single-edge packets.
			par := bfs.Params{Nodes: n, Scale: bfsScale, EdgeFactor: 8, NRoots: 1}
			d1 := bfs.Run(comm.DV, par)
			par.DVPlanes = 2
			d2 := bfs.Run(comm.DV, par)
			par.DVPlanes = 0
			par.IBScaled = true
			ib := bfs.Run(comm.IB, par)
			best := d1.HarmonicMeanTEPS()
			if d2.HarmonicMeanTEPS() > best {
				best = d2.HarmonicMeanTEPS()
			}
			return []Cell{Text("BFS (MTEPS)"), Int(n), geom,
				Num(d1.HarmonicMeanTEPS()/1e6, 1, None),
				Num(d2.HarmonicMeanTEPS()/1e6, 1, None),
				Num(ib.HarmonicMeanTEPS()/1e6, 1, None),
				Num(best/ib.HarmonicMeanTEPS(), 2, Ratio)}
		default: // all-to-all: the bulk-exchange contrast case (lower is better).
			d1 := alltoallExchange(comm.DV, n, a2aWords, a2aRounds, 0, false)
			d2 := alltoallExchange(comm.DV, n, a2aWords, a2aRounds, 2, false)
			ib := alltoallExchange(comm.IB, n, a2aWords, a2aRounds, 0, true)
			best := d1
			if d2 < best {
				best = d2
			}
			return []Cell{Text("alltoall (us/exch)"), Int(n), geom,
				Num(d1.Micros(), 2, None), Num(d2.Micros(), 2, None),
				Num(ib.Micros(), 2, None), speedup(ib, best)}
		}
	})
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
