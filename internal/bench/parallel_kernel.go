package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/gups"
	"repro/internal/comm"
)

// ExtParallelKernel is extension P: the parallel-kernel scaling study. It
// runs GUPS at four times the reference size through both fabric engines at
// a sweep of worker widths, timing each run on the wall clock and checking
// the paper-facing results against the Workers=0 serial-kernel reference —
// which must match bit-for-bit at every width, so the only thing the sweep
// is allowed to change is how long the simulator takes.
//
// Wall-clock speedup requires real cores: on a single-CPU host the extra
// workers only add barrier spin and preemption, and the honest table shows
// it (the host's core count is recorded in the notes). The determinism
// column is meaningful everywhere.
func ExtParallelKernel(opt Options) *Table {
	t := &Table{
		ID:      "extP",
		Title:   "Parallel kernel: worker-width sweep at 4x reference size (GUPS)",
		Columns: []string{"engine", "workers", "wall", "virtual elapsed", "MUPS", "identical"},
		Notes: []string{
			fmt.Sprintf("host has %d visible CPU core(s); wall-clock speedup needs workers <= cores, results are byte-identical regardless", runtime.NumCPU()),
			"workers=0 is the serial reference kernel; the cycle-accurate rows force the fan gate open (ParMinFlying < 0) so every switch cycle crosses the parallel move phase",
		},
	}
	par := gups.Params{Nodes: 16, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 12}
	if opt.Small {
		par.Nodes = 8
		par.UpdatesPerNode = 1 << 10
	}
	widths := []int{0, 1, 2, 4, 8}
	if opt.Workers > 0 {
		seen := false
		for _, w := range widths {
			if w == opt.Workers {
				seen = true
			}
		}
		if !seen {
			widths = append(widths, opt.Workers)
		}
	}
	// The dvbench startup warning only sees the -workers flag; the sweep
	// drives its own widths, so each oversubscribing row warns here.
	t.Notes = append(t.Notes, oversubRowNotes("extP", widths, 1, runtime.NumCPU())...)
	for _, cyc := range []bool{false, true} {
		engine := "fast model"
		if cyc {
			engine = "cycle-accurate"
		}
		var ref gups.Result
		for i, w := range widths {
			p := par
			p.CycleAccurate = cyc
			p.Workers = w
			if cyc {
				p.ParMinFlying = -1
			}
			t0 := time.Now()
			res := gups.Run(comm.DV, p)
			wall := time.Since(t0)
			ident := "ref"
			if i == 0 {
				ref = res
			} else if res.Elapsed == ref.Elapsed && res.Errors == ref.Errors && res.Lost == ref.Lost {
				ident = "yes"
			} else {
				ident = "NO"
			}
			t.AddRow(engine, fmt.Sprintf("%d", w), wall.Round(time.Millisecond).String(),
				res.Elapsed.String(), fmt.Sprintf("%.1f", res.MUPS()), ident)
		}
	}
	return t
}
