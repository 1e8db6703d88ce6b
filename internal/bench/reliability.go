package bench

import (
	"repro/internal/apps/barrier"
	"repro/internal/apps/gups"
	"repro/internal/apps/heat"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// ExtReliability is extension N: end-to-end fault injection across the Data
// Vortex stack. A per-link drop/corrupt plan is swept over three workloads,
// each run twice — on the unprotected API (where loss silently wedges
// counters or corrupts answers) and on the reliable-delivery layer (where
// retransmission keeps the answer bit-correct at a bounded slowdown).
func ExtReliability(opt Options) *Table {
	t := &Table{
		ID:      "extN",
		Title:   "End-to-end fault injection: unprotected API vs reliable delivery",
		Columns: []string{"workload", "drop/hop", "path", "valid", "elapsed", "slowdown", "dropped", "retrans", "lost"},
		Notes: []string{
			"faults start at t=5us (after setup); corrupt rate = drop rate / 4; corrupted packets are discarded by the receiving VIC's CRC check",
			"unprotected runs use bounded waits so lossy runs terminate; \"lost\" counts undelivered updates (GUPS), halo-wait timeouts (heat), or unfinished iterations (barrier)",
			"slowdown is vs the clean unprotected run of the same workload",
		},
	}
	rates := []float64{0, 1e-4, 1e-3}
	nodes := 8
	updates := 1 << 11
	heatSteps := 10
	barIters := 30
	if opt.Small {
		rates = []float64{0, 1e-3}
		nodes = 4
		updates = 1 << 10
		heatSteps = 6
		barIters = 10
	}
	plan := func(rate float64) *faultplan.Plan {
		if rate == 0 {
			return nil
		}
		return &faultplan.Plan{Seed: 7, DropProb: rate, CorruptProb: rate / 4,
			Window: faultplan.Window{Start: 5 * sim.Microsecond}}
	}
	// A run reports whether its answer is right, its elapsed time, and its
	// dropped, retransmitted and lost counts. lossy marks an unprotected run
	// under faults, which waits with a bound so that it terminates.
	type outcome struct {
		ok                     bool
		elapsed                sim.Time
		dropped, retrans, lost int64
	}
	workloads := []struct {
		name string
		run  func(faults *faultplan.Plan, reliable, lossy bool) outcome
	}{
		{"GUPS", func(faults *faultplan.Plan, reliable, lossy bool) outcome {
			par := gups.Params{Nodes: nodes, TableWordsNode: 1 << 10, UpdatesPerNode: updates,
				Seed: 1, KeepTables: true, Reliable: reliable, Platform: cluster.Platform{Faults: faults}}
			if lossy {
				par.WaitTimeout = 2 * sim.Millisecond
			}
			r := gups.Run(comm.DV, par)
			return outcome{gups.Verify(par, r) == 0 && r.Errors == 0 && r.Lost == 0, r.Elapsed,
				r.Report.Dropped, r.Report.Reliability.Retransmits, r.Lost}
		}},
		{"heat", func(faults *faultplan.Plan, reliable, lossy bool) outcome {
			par := heat.Params{Nodes: nodes, N: 16, Steps: heatSteps, KeepField: true,
				Reliable: reliable, Platform: cluster.Platform{Faults: faults}}
			if lossy {
				par.WaitTimeout = 50 * sim.Microsecond
			}
			r := heat.Run(comm.DV, par)
			return outcome{heat.MaxErr(par, r.Field) < 1e-9 && r.Errors == 0 && r.Timeouts == 0, r.Elapsed,
				r.Report.Dropped, r.Report.Reliability.Retransmits, r.Timeouts}
		}},
		{"barrier", func(faults *faultplan.Plan, reliable, lossy bool) outcome {
			impl, opts := barrier.DVFastBarrier, barrier.Opts{Platform: cluster.Platform{Faults: faults}}
			if reliable {
				impl = barrier.DVReliable
			} else if lossy {
				opts.WaitTimeout = 30 * sim.Microsecond
			}
			r := barrier.RunOpts(impl, nodes, barIters, opts)
			return outcome{r.Completed == r.Iters && r.Errors == 0, r.Report.Elapsed,
				r.Report.Dropped, r.Report.Reliability.Retransmits, int64(r.Iters - r.Completed)}
		}},
	}
	// Point i is workload i/(2*len(rates)) at rate i/2%len(rates), on the
	// unprotected API at even i and on reliable delivery at odd i: one row
	// each. A point's cells are valid, elapsed, dropped, retrans and lost.
	per := 2 * len(rates)
	p := SweepRows(opt, t.ID, len(workloads)*per, 5, func(i int) []Cell {
		rate, reliable := rates[i/2%len(rates)], i%2 == 1
		o := workloads[i/per].run(plan(rate), reliable, !reliable && rate > 0)
		valid := Text("NO")
		if o.ok {
			valid = Text("yes")
		}
		return []Cell{valid, Dur(o.elapsed), Int(o.dropped), Int(o.retrans), Int(o.lost)}
	})
	for i, c := range p {
		rate := rates[i/2%len(rates)]
		rc := Num(rate, 0, Sci)
		if rate == 0 {
			rc = Int(0)
		}
		path := Text("unprotected")
		if i%2 == 1 {
			path = Text("reliable")
		}
		// The workload's first point is its clean unprotected run.
		slow, base := Text("-"), p[i-i%per][1]
		if base.V != 0 && c[1].V != 0 {
			slow = speedup(c[1], base)
		}
		t.AddRow(Text(workloads[i/per].name), rc, path, c[0], c[1], slow, c[2], c[3], c[4])
	}
	return t
}
