package main

import (
	"runtime"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// This file is the benchmark's only use of the switch fan (SetFanPool,
// NewFanPool), so that dvswitch.fan2_speedup can be retired here before a
// change deletes the fan. No workload sets Workers, so nothing else in the
// benchmark depends on it.

// fanSpeedup steps the saturated 256-port core serially and fanned over two
// workers, each for half of the sample. Returns serial / fanned time per
// cycle: above 1 the fan wins, below 1 it costs. On one CPU the two workers
// share a core and the number only says so.
func fanSpeedup(c driverCtx) []float64 {
	perCycle := func(core *dvswitch.Core) float64 {
		return perUnit(c.d/2, func() int64 { step64(core); return 64 })
	}
	serial := perCycle(saturatedCore())

	// The fan needs two Ps whatever the rest of the benchmark runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	pool := sim.NewFanPool(2)
	defer pool.Stop()
	fanned := saturatedCore()
	fanned.SetFanPool(pool, -1)
	return []float64{serial / perCycle(fanned)}
}
