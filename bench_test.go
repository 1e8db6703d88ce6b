// Package repro's top-level benchmarks regenerate each figure of the
// paper's evaluation through the internal/bench runners — one benchmark per
// table/figure, reporting the figure's headline metric. Run with:
//
//	go test -bench=. -benchmem
//
// The full-size harness is cmd/dvbench; benchmarks use reduced sizes so the
// whole suite completes in minutes while preserving every result's shape.
package repro

import (
	"io"
	"strconv"
	"testing"

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
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// BenchmarkFig3aPingPong measures the four ping-pong configurations at a
// representative message size (bytes/s reported as the figure metric).
func BenchmarkFig3aPingPong(b *testing.B) {
	for _, m := range []pingpong.Mode{pingpong.DVWrNoCached, pingpong.DVWrCached,
		pingpong.DVDMACached, pingpong.MPIIB} {
		b.Run(m.String(), func(b *testing.B) {
			var r pingpong.Result
			for i := 0; i < b.N; i++ {
				r = pingpong.Run(m, pingpong.Params{Words: 4096, Iters: 10})
			}
			b.ReportMetric(r.Bandwidth/1e9, "GB/s")
			b.ReportMetric(r.PercentPeak(), "%peak")
		})
	}
}

// BenchmarkFig3bPeakFraction measures the large-message efficiency (the
// figure-3b endpoint: DV ≈ 99% of 4.4 GB/s, MPI ≈ 72% of 6.8 GB/s).
func BenchmarkFig3bPeakFraction(b *testing.B) {
	for _, m := range []pingpong.Mode{pingpong.DVDMACached, pingpong.MPIIB} {
		b.Run(m.String(), func(b *testing.B) {
			var r pingpong.Result
			for i := 0; i < b.N; i++ {
				r = pingpong.Run(m, pingpong.Params{Words: 1 << 16, Iters: 4})
			}
			b.ReportMetric(r.PercentPeak(), "%peak")
		})
	}
}

// BenchmarkFig4Barrier measures barrier latency for the three
// implementations across the node sweep.
func BenchmarkFig4Barrier(b *testing.B) {
	for _, impl := range []barrier.Impl{barrier.DVIntrinsic, barrier.DVFastBarrier, barrier.MPIBarrier} {
		for _, n := range []int{2, 8, 32} {
			b.Run(impl.String()+"/nodes="+strconv.Itoa(n), func(b *testing.B) {
				var r barrier.Result
				for i := 0; i < b.N; i++ {
					r = barrier.Run(impl, n, 50)
				}
				b.ReportMetric(r.Latency.Micros(), "us/barrier")
			})
		}
	}
}

// BenchmarkFig5Trace regenerates the GUPS execution trace.
func BenchmarkFig5Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig5(bench.Options{Small: true}, io.Discard)
	}
}

// BenchmarkFig6GUPS measures GUPS on both stacks across the node sweep.
func BenchmarkFig6GUPS(b *testing.B) {
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		for _, n := range []int{4, 16, 32} {
			b.Run(net.String()+"/nodes="+strconv.Itoa(n), func(b *testing.B) {
				var r gups.Result
				for i := 0; i < b.N; i++ {
					r = gups.Run(net, gups.Params{Nodes: n,
						TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 12})
				}
				b.ReportMetric(r.MUPSPerNode(), "MUPS/PE")
				b.ReportMetric(r.MUPS(), "MUPS")
			})
		}
	}
}

// BenchmarkFig7FFT measures the distributed FFT on both stacks.
func BenchmarkFig7FFT(b *testing.B) {
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		for _, n := range []int{4, 16, 32} {
			b.Run(net.String()+"/nodes="+strconv.Itoa(n), func(b *testing.B) {
				var r fft.Result
				for i := 0; i < b.N; i++ {
					r = fft.Run(net, fft.Params{Nodes: n, LogN: 16})
				}
				b.ReportMetric(r.GFLOPS(), "GFLOPS")
			})
		}
	}
}

// BenchmarkFig8BFS measures Graph500 BFS on both stacks.
func BenchmarkFig8BFS(b *testing.B) {
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		for _, n := range []int{4, 16, 32} {
			b.Run(net.String()+"/nodes="+strconv.Itoa(n), func(b *testing.B) {
				var r bfs.Result
				for i := 0; i < b.N; i++ {
					r = bfs.Run(net, bfs.Params{Nodes: n, Scale: 13, EdgeFactor: 8, NRoots: 2})
				}
				b.ReportMetric(r.HarmonicMeanTEPS()/1e6, "MTEPS")
			})
		}
	}
}

// BenchmarkFig9Apps measures the three applications on both stacks at 32
// nodes; the DV/IB time ratio is Figure 9's speedup bar.
func BenchmarkFig9Apps(b *testing.B) {
	b.Run("SNAP/DV", func(b *testing.B) {
		var r snap.Result
		for i := 0; i < b.N; i++ {
			r = snap.Run(comm.DV, snap.Params{Nodes: 32, NX: 16, NY: 16, NZ: 16, MaxIters: 4})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("SNAP/IB", func(b *testing.B) {
		var r snap.Result
		for i := 0; i < b.N; i++ {
			r = snap.Run(comm.IB, snap.Params{Nodes: 32, NX: 16, NY: 16, NZ: 16, MaxIters: 4})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("Vorticity/DV", func(b *testing.B) {
		var r vorticity.Result
		for i := 0; i < b.N; i++ {
			r = vorticity.Run(comm.DV, vorticity.Params{Nodes: 32, N: 128, Steps: 2})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("Vorticity/IB", func(b *testing.B) {
		var r vorticity.Result
		for i := 0; i < b.N; i++ {
			r = vorticity.Run(comm.IB, vorticity.Params{Nodes: 32, N: 128, Steps: 2})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("Heat/DV", func(b *testing.B) {
		var r heat.Result
		for i := 0; i < b.N; i++ {
			r = heat.Run(comm.DV, heat.Params{Nodes: 32, N: 16, Steps: 10})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("Heat/IB", func(b *testing.B) {
		var r heat.Result
		for i := 0; i < b.N; i++ {
			r = heat.Run(comm.IB, heat.Params{Nodes: 32, N: 16, Steps: 10})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
}

// BenchmarkExtN runs the fault-injection sweep of extension N: each workload
// under packet loss, on the unprotected API and on the reliable-delivery
// layer. The reliable runs validate bit-correct; the reported metrics are the
// retransmit count and the slowdown relative to a clean run.
func BenchmarkExtN(b *testing.B) {
	plan := func() *faultplan.Plan {
		return &faultplan.Plan{Seed: 7, DropProb: 1e-3, CorruptProb: 2.5e-4,
			Window: faultplan.Window{Start: 5 * sim.Microsecond}}
	}
	b.Run("GUPS/reliable", func(b *testing.B) {
		par := gups.Params{Nodes: 8, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 11,
			Seed: 1, KeepTables: true, Platform: cluster.Platform{Faults: plan()}, Reliable: true}
		var r gups.Result
		for i := 0; i < b.N; i++ {
			r = gups.Run(comm.DV, par)
		}
		if bad := gups.Verify(par, r); bad != 0 {
			b.Fatalf("reliable GUPS under faults: %d wrong words", bad)
		}
		b.ReportMetric(float64(r.Report.Reliability.Retransmits), "retransmits")
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("heat/reliable", func(b *testing.B) {
		par := heat.Params{Nodes: 8, N: 16, Steps: 10, KeepField: true,
			Platform: cluster.Platform{Faults: plan()}, Reliable: true}
		var r heat.Result
		for i := 0; i < b.N; i++ {
			r = heat.Run(comm.DV, par)
		}
		if err := heat.MaxErr(par, r.Field); err > 1e-9 {
			b.Fatalf("reliable heat under faults: max error %g", err)
		}
		b.ReportMetric(float64(r.Report.Reliability.Retransmits), "retransmits")
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("barrier/reliable", func(b *testing.B) {
		var r barrier.Result
		for i := 0; i < b.N; i++ {
			r = barrier.RunOpts(barrier.DVReliable, 8, 30, barrier.Opts{Platform: cluster.Platform{Faults: plan()}})
		}
		if r.Completed != r.Iters || r.Errors != 0 {
			b.Fatalf("reliable barrier under faults: %d/%d, %d errors", r.Completed, r.Iters, r.Errors)
		}
		b.ReportMetric(float64(r.Report.Reliability.Retransmits), "retransmits")
		b.ReportMetric(r.Latency.Micros(), "us/barrier")
	})
	b.Run("GUPS/unprotected", func(b *testing.B) {
		par := gups.Params{Nodes: 8, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 11,
			Seed: 1, KeepTables: true, Platform: cluster.Platform{Faults: plan()}, WaitTimeout: 2 * sim.Millisecond}
		var r gups.Result
		for i := 0; i < b.N; i++ {
			r = gups.Run(comm.DV, par)
		}
		b.ReportMetric(float64(r.Lost), "lost")
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
}

// BenchmarkSwitchTraffic exercises the cycle-accurate switch under the
// synthetic patterns of extension A, reporting sustained throughput.
func BenchmarkSwitchTraffic(b *testing.B) {
	for _, pattern := range []string{"uniform", "hotspot", "tornado"} {
		b.Run(pattern, func(b *testing.B) {
			p := dvswitch.Params{Heights: 8, Angles: 4}
			var thr float64
			for i := 0; i < b.N; i++ {
				c := dvswitch.NewCore(p)
				tr := dvswitch.Traffic{Pattern: pattern, Load: 0.5, Hot: 13, QueueCap: 8}
				rng := sim.NewRNG(7)
				const cycles = 5000
				for cy := 0; cy < cycles; cy++ {
					tr.Offer(c, rng, nil)
					c.Step()
				}
				c.RunUntilIdle(1 << 22)
				thr = float64(c.Stats().Delivered) / cycles / float64(p.Ports())
			}
			b.ReportMetric(thr, "pkts/port/cycle")
		})
	}
}

// BenchmarkCycleVsFastModel compares the two switch engines end to end on
// the same workload (the ablation behind the cluster's CycleAccurate knob).
func BenchmarkCycleVsFastModel(b *testing.B) {
	for _, cyc := range []bool{false, true} {
		name := "fast"
		if cyc {
			name = "cycle-accurate"
		}
		b.Run(name, func(b *testing.B) {
			var r gups.Result
			for i := 0; i < b.N; i++ {
				r = gups.Run(comm.DV, gups.Params{Nodes: 8, TableWordsNode: 1 << 12,
					UpdatesPerNode: 1 << 11, Platform: cluster.Platform{CycleAccurate: cyc}})
			}
			b.ReportMetric(r.MUPSPerNode(), "MUPS/PE")
		})
	}
}

// BenchmarkExtKernels measures the extension kernels on both stacks at 16
// nodes (PageRank over the PGAS layer, SpMV query gathers, and the sample
// sort contrast case).
func BenchmarkExtKernels(b *testing.B) {
	b.Run("PageRank/DV", func(b *testing.B) {
		var r pagerank.Result
		for i := 0; i < b.N; i++ {
			r = pagerank.Run(comm.DV, pagerank.Params{Nodes: 16, Scale: 12, MaxIters: 5, Tol: 0})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("PageRank/IB", func(b *testing.B) {
		var r pagerank.Result
		for i := 0; i < b.N; i++ {
			r = pagerank.Run(comm.IB, pagerank.Params{Nodes: 16, Scale: 12, MaxIters: 5, Tol: 0})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("SpMV/DV", func(b *testing.B) {
		var r spmv.Result
		for i := 0; i < b.N; i++ {
			r = spmv.Run(comm.DV, spmv.Params{Nodes: 16, Scale: 12, Iters: 3})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("SpMV/IB", func(b *testing.B) {
		var r spmv.Result
		for i := 0; i < b.N; i++ {
			r = spmv.Run(comm.IB, spmv.Params{Nodes: 16, Scale: 12, Iters: 3})
		}
		b.ReportMetric(r.Elapsed.Micros(), "us")
	})
	b.Run("Sort/DV", func(b *testing.B) {
		var r sortapp.Result
		for i := 0; i < b.N; i++ {
			r = sortapp.Run(comm.DV, sortapp.Params{Nodes: 16, KeysPerNode: 1 << 13})
		}
		b.ReportMetric(r.SortedRate()/1e6, "Mkeys/s")
	})
	b.Run("Sort/IB", func(b *testing.B) {
		var r sortapp.Result
		for i := 0; i < b.N; i++ {
			r = sortapp.Run(comm.IB, sortapp.Params{Nodes: 16, KeysPerNode: 1 << 13})
		}
		b.ReportMetric(r.SortedRate()/1e6, "Mkeys/s")
	})
}
