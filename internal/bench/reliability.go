package bench

import (
	"fmt"

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
	fmtRate := func(rate float64) string {
		if rate == 0 {
			return "0"
		}
		return fmt.Sprintf("%.0e", rate)
	}
	slow := func(e, base sim.Time) string {
		if base == 0 || e == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(e)/float64(base))
	}
	valid := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "NO"
	}
	paths := []struct {
		name     string
		reliable bool
	}{{"unprotected", false}, {"reliable", true}}

	var gupsBase sim.Time
	for _, rate := range rates {
		for _, path := range paths {
			par := gups.Params{Nodes: nodes, TableWordsNode: 1 << 10, UpdatesPerNode: updates,
				Seed: 1, KeepTables: true, Reliable: path.reliable,
				Platform: cluster.Platform{Faults: plan(rate)}}
			if !path.reliable && rate > 0 {
				par.WaitTimeout = 2 * sim.Millisecond
			}
			r := gups.Run(comm.DV, par)
			if !path.reliable && rate == 0 {
				gupsBase = r.Elapsed
			}
			ok := gups.Verify(par, r) == 0 && r.Errors == 0 && r.Lost == 0
			t.AddRow("GUPS", fmtRate(rate), path.name, valid(ok), r.Elapsed.String(),
				slow(r.Elapsed, gupsBase),
				fmt.Sprintf("%d", r.Report.Dropped),
				fmt.Sprintf("%d", r.Report.Reliability.Retransmits),
				fmt.Sprintf("%d", r.Lost))
		}
	}

	var heatBase sim.Time
	for _, rate := range rates {
		for _, path := range paths {
			par := heat.Params{Nodes: nodes, N: 16, Steps: heatSteps, KeepField: true,
				Reliable: path.reliable, Platform: cluster.Platform{Faults: plan(rate)}}
			if !path.reliable && rate > 0 {
				par.WaitTimeout = 50 * sim.Microsecond
			}
			r := heat.Run(comm.DV, par)
			if !path.reliable && rate == 0 {
				heatBase = r.Elapsed
			}
			ok := heat.MaxErr(par, r.Field) < 1e-9 && r.Errors == 0 && r.Timeouts == 0
			t.AddRow("heat", fmtRate(rate), path.name, valid(ok), r.Elapsed.String(),
				slow(r.Elapsed, heatBase),
				fmt.Sprintf("%d", r.Report.Dropped),
				fmt.Sprintf("%d", r.Report.Reliability.Retransmits),
				fmt.Sprintf("%d", r.Timeouts))
		}
	}

	var barBase sim.Time
	for _, rate := range rates {
		for _, path := range paths {
			impl := barrier.DVFastBarrier
			opts := barrier.Opts{Platform: cluster.Platform{Faults: plan(rate)}}
			if path.reliable {
				impl = barrier.DVReliable
			} else if rate > 0 {
				opts.WaitTimeout = 30 * sim.Microsecond
			}
			r := barrier.RunOpts(impl, nodes, barIters, opts)
			elapsed := r.Report.Elapsed
			if !path.reliable && rate == 0 {
				barBase = elapsed
			}
			ok := r.Completed == r.Iters && r.Errors == 0
			t.AddRow("barrier", fmtRate(rate), path.name, valid(ok), elapsed.String(),
				slow(elapsed, barBase),
				fmt.Sprintf("%d", r.Report.Dropped),
				fmt.Sprintf("%d", r.Report.Reliability.Retransmits),
				fmt.Sprintf("%d", r.Iters-r.Completed))
		}
	}
	return t
}
