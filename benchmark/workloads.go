package main

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/apprt"
	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/fftkernel"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// simStats are the simulated statistics of one run. The simulator is
// deterministic, so they repeat exactly for a seed: a change that only
// speeds the simulator up must leave every one of them identical.
type simStats struct {
	ElapsedPs      int64  `json:"elapsed_ps"`
	Delivered      int64  `json:"dv_delivered"`
	TotalHops      int64  `json:"dv_total_hops"`
	TotalDeflected int64  `json:"dv_total_deflected"`
	Messages       int64  `json:"ib_messages"`
	Bytes          int64  `json:"ib_bytes"`
	Digest         string `json:"digest,omitempty"` // figures_small: SHA-256 of the rendered tables
}

func statsOf(rep *cluster.Report) simStats {
	return simStats{
		ElapsedPs:      int64(rep.Elapsed),
		Delivered:      rep.DVFabric.Delivered,
		TotalHops:      rep.DVFabric.TotalHops,
		TotalDeflected: rep.DVFabric.TotalDeflected,
		Messages:       rep.IBFabric.Messages,
		Bytes:          rep.IBFabric.Bytes,
	}
}

// fabricOutcome is the outcome of a run with one Report: its work is what
// the two fabrics carried.
func fabricOutcome(rep *cluster.Report) outcome {
	st := statsOf(rep)
	return outcome{stats: st, ops: st.Delivered + st.Messages}
}

// outcome is what one run of a workload hands to the checks.
type outcome struct {
	stats simStats
	// ops is the simulated work the run did: packets delivered by the Data
	// Vortex fabric plus messages carried by InfiniBand (edges traversed on
	// bfs_ib; table rows on figures_small, which has no single Report).
	ops int64
}

// instance is one workload bound to a seed and a size.
type instance struct {
	// run is the timed call: the workload's entry function, call to return.
	run func() outcome
	// verify checks the outputs of the latest run and lets go of them, so
	// that every run starts from the same heap; it is never timed.
	verify func() error
}

// workload is one fixed set of inputs. shrink halves the problem shrink
// times: 0 is the measured size, 3 the set-up warm-up, 4 the smoke size.
type workload struct {
	name string
	why  string
	size string // the measured size, for the provenance header
	make func(seed uint64, shrink int) instance
}

var workloads = []workload{
	{
		name: "gups_dv_fast",
		why:  "headline irregular kernel on Data Vortex: single-word packets, sim handoff and queue do the work, ib/mpi none",
		size: "32 nodes, 2^14 table words and 2^14 updates per node, fast model",
		make: func(seed uint64, shrink int) instance { return gupsInstance(comm.DV, 14, seed, shrink, false) },
	},
	{
		name: "gups_dv_instr",
		why:  "same inputs with obs, attr and all four check consumers on: the instrumentation seams carry the extra cost",
		size: "as gups_dv_fast with Obs{5us,1/8 packets}, Attr{every flow}, Check{Switch,VIC,Reliable,Attr}",
		make: func(seed uint64, shrink int) instance { return gupsInstance(comm.DV, 14, seed, shrink, true) },
	},
	{
		name: "gups_ib",
		why:  "same kernel on the other stack: mpi.Alltoall, ib and handoff do the work, dvswitch/vic none",
		size: "32 nodes, 2^14 table words and 2^18 updates per node",
		make: func(seed uint64, shrink int) instance { return gupsInstance(comm.IB, 18, seed, shrink, false) },
	},
	{
		name: "bfs_ib",
		why:  "second irregular kernel; host graph construction in apps is most of the run, so a network change must not move it",
		size: "32 nodes, scale 13, edge factor 16, 4 roots",
		make: bfsInstance,
	},
	{
		name: "fft_dv",
		why:  "regular bulk traffic: large DMA transposes keep the event queue deep, little handoff",
		size: "32 nodes, 2^16 points, fast model",
		make: fftInstance,
	},
	{
		name: "a2a_dv_cycle256",
		why:  "256-node all-to-all on the cycle-accurate 32x8 switch: the only workload where dvswitch.Core is the largest layer",
		size: "256 nodes, 16 words per peer, 1 round, cycle-accurate",
		make: a2aInstance,
	},
	{
		name: "figures_small",
		why:  "what dvbench -small users wait for: hundreds of short runs over all 11 apps, dominated by cluster set-up and small messages",
		size: "bench.Options{Small,Jobs:1}: Fig3a-9 and 12 extensions (not ExtParallelKernel, ExtScaleApps, ExtAppScaling, ExtScalingCrossover)",
		make: figuresInstance,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Runs are configured by field assignment on zero values, never composite
// literals, so the benchmark keeps compiling when the knobs move into an
// embedded platform struct; the cross-checking and parallel-kernel knobs
// are never set here.

func gupsParams(logUpdates int, seed uint64, shrink int) gups.Params {
	var par gups.Params
	par.Nodes = 32
	par.TableWordsNode = 1 << (14 - shrink)
	par.UpdatesPerNode = 1 << (logUpdates - shrink)
	par.Seed = seed
	par.KeepTables = true
	return par
}

func gupsInstance(net comm.Net, logUpdates int, seed uint64, shrink int, instrumented bool) instance {
	par := gupsParams(logUpdates, seed, shrink)
	var last gups.Result
	return instance{
		run: func() outcome {
			p := par
			if instrumented {
				// Fresh configs per run: the consumers hold per-run state.
				var oc obs.Config
				oc.Every = 5 * sim.Microsecond
				oc.PacketSample = 8
				var ac attr.Config
				ac.Sample = 1
				var cc check.Config
				cc.Switch, cc.VIC, cc.Reliable, cc.Attr = true, true, true, true
				p.Obs, p.Attr, p.Check = &oc, &ac, &cc
			}
			last = gups.Run(net, p)
			return fabricOutcome(last.Report)
		},
		verify: func() error {
			defer func() { last = gups.Result{} }()
			if bad := gups.Verify(par, last); bad != 0 {
				return fmt.Errorf("gups: %d table words differ from the serial replay", bad)
			}
			if last.Lost != 0 || last.Errors != 0 {
				return fmt.Errorf("gups: %d updates lost, %d delivery errors", last.Lost, last.Errors)
			}
			if instrumented {
				if last.Report.Metrics == nil || last.Report.Attr == nil || last.Report.Checks == nil {
					return fmt.Errorf("gups: an instrumentation consumer produced no output")
				}
				return last.Report.Checks.Err()
			}
			return nil
		},
	}
}

func bfsInstance(seed uint64, shrink int) instance {
	var par bfs.Params
	par.Nodes = 32
	par.Scale = 13 - shrink
	par.EdgeFactor = 16
	par.NRoots = 4
	par.Seed = seed
	par.KeepParents = true
	var last bfs.Result
	return instance{
		run: func() outcome {
			last = bfs.Run(comm.IB, par)
			// Traversed edges, the paper's unit of BFS work: the number of
			// fabric messages follows how many levels the seed's roots
			// need (+-12 %), the edge count hardly at all.
			var edges int64
			for _, s := range last.Searches {
				edges += s.Edges
			}
			return outcome{stats: statsOf(last.Report), ops: edges}
		},
		verify: func() error {
			defer func() { last = bfs.Result{} }()
			if len(last.Searches) != par.NRoots || len(last.Parents) != par.NRoots {
				return fmt.Errorf("bfs: %d searches, %d parent arrays, want %d", len(last.Searches), len(last.Parents), par.NRoots)
			}
			return bfs.ValidateParents(par, last.Searches[0].Root, last.Parents[0])
		},
	}
}

func fftInstance(seed uint64, shrink int) instance {
	var par fft.Params
	par.Nodes = 32
	par.LogN = 16 - shrink
	par.Seed = seed
	par.KeepResult = true
	want := fft.SerialReference(par)
	var last fft.Result
	return instance{
		run: func() outcome {
			last = fft.Run(comm.DV, par)
			return fabricOutcome(last.Report)
		},
		verify: func() error {
			defer func() { last = fft.Result{} }()
			if len(last.Spectrum) != len(want) {
				return fmt.Errorf("fft: spectrum has %d points, want %d", len(last.Spectrum), len(want))
			}
			if e := fftkernel.MaxAbsDiff(last.Spectrum, want); !(e <= 1e-9) {
				return fmt.Errorf("fft: max error %g against the serial reference", e)
			}
			return nil
		},
	}
}

// a2aByte is the payload byte j of the block src sends dst.
func a2aByte(seed uint64, src, dst, j int) byte {
	x := seed + uint64(src)<<40 + uint64(dst)<<20 + uint64(j)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return byte(x >> 56)
}

// a2aRun is the benchmark's own kernel: one personalized all-to-all exchange
// of words*8 bytes per peer on the Data Vortex stack, every received byte
// checked against the sender's pattern. Returns the report and how many
// bytes were wrong.
func a2aRun(seed uint64, nodes, words int, cycleAccurate bool) (apprt.Report, int) {
	var spec apprt.RunSpec
	spec.Net = comm.DV
	spec.Nodes = nodes
	spec.Seed = seed
	spec.CycleAccurate = cycleAccurate
	bad := 0
	rep := apprt.Execute(spec, func(n *cluster.Node, be comm.Backend) sim.Time {
		blocks := make([][]byte, nodes)
		for d := range blocks {
			blocks[d] = make([]byte, words*8)
			for j := range blocks[d] {
				blocks[d][j] = a2aByte(seed, n.ID, d, j)
			}
		}
		t0 := n.P.Now()
		got := be.Alltoall(blocks)
		for src, b := range got {
			if len(b) != words*8 {
				bad += words * 8
				continue
			}
			for j := range b {
				if b[j] != a2aByte(seed, src, n.ID, j) {
					bad++
				}
			}
		}
		return n.P.Now() - t0
	})
	return rep, bad
}

// a2aSize is the all-to-all's node count and words per peer: the large-radix
// switch at every size but the smoke test's.
func a2aSize(shrink int) (nodes, words int) {
	if shrink >= smokeShrink {
		return 64, 1
	}
	return 256, 16 >> shrink
}

func a2aInstance(seed uint64, shrink int) instance {
	nodes, words := a2aSize(shrink)
	bad := 0
	return instance{
		run: func() outcome {
			var rep apprt.Report
			rep, bad = a2aRun(seed, nodes, words, true)
			return fabricOutcome(rep.Cluster)
		},
		verify: func() error {
			if bad != 0 {
				return fmt.Errorf("a2a: %d received bytes differ from the sender's pattern", bad)
			}
			return nil
		},
	}
}

// figureTables regenerates the figure tables at -small size. shrink 3 keeps
// the four cheapest paper figures, shrink 4 Fig4 alone.
func figureTables(shrink int) []*bench.Table {
	var opt bench.Options
	opt.Small = true
	opt.Jobs = 1
	if shrink >= 4 {
		return []*bench.Table{bench.Fig4(opt)}
	}
	a6, b6 := bench.Fig6(opt)
	if shrink >= 3 {
		return []*bench.Table{bench.Fig4(opt), bench.Fig5(opt, nil), a6, b6, bench.Fig7(opt)}
	}
	return []*bench.Table{
		bench.Fig3a(opt), bench.Fig3b(opt), bench.Fig4(opt), bench.Fig5(opt, nil),
		a6, b6, bench.Fig7(opt), bench.Fig8(opt), bench.Fig9(opt),
		bench.ExtSwitchTraffic(opt), bench.ExtScale(opt), bench.ExtAblation(opt),
		bench.ExtRouting(opt), bench.ExtMultiRail(opt), bench.ExtPageRank(opt), bench.ExtFaults(opt),
		bench.ExtSpMV(opt), bench.ExtSubsetBarrier(opt), bench.ExtSort(opt), bench.ExtProvisioning(opt),
		bench.ExtReliability(opt),
	}
}

// figuresInstance ignores the seed: the figure runners pin their own, as
// dvbench does. Its simulated statistic is the digest of the rendered
// tables, which must never change.
func figuresInstance(_ uint64, shrink int) instance {
	return instance{
		run: func() outcome {
			tables := figureTables(shrink)
			h := sha256.New()
			rows := 0
			for _, t := range tables {
				t.Fprint(h)
				rows += len(t.Rows)
			}
			return outcome{stats: simStats{Digest: fmt.Sprintf("%x", h.Sum(nil))}, ops: int64(rows)}
		},
		verify: func() error { return nil }, // the digest is checked as the run's statistic
	}
}
