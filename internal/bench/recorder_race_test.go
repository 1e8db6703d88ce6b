package bench

import (
	"testing"

	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/obs/attr"
	"repro/internal/trace"
)

// TestRecorderNoRaceUnderParallelSweep exercises the attribution tracer's
// single-goroutine invariant (documented on attr.Tracer) under the race
// detector with the execution trace on: Sweep runs several traced GUPS
// simulations concurrently, each with its own kernel and its own tracer.
// Flows and compute spans are recorded from inside each kernel's event loop
// (message callbacks and resumed node procs), so if tracers leaked across
// sweep points, or a kernel ever drove its tracer from two goroutines,
// `go test -race` flags this test. Run it with -race to enforce the
// invariant.
func TestRecorderNoRaceUnderParallelSweep(t *testing.T) {
	const points = 8
	run := func(seed uint64) *trace.Log {
		log, err := gups.Run(comm.IB, gups.Params{
			Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 7, Seed: seed,
			Platform: cluster.Platform{Attr: &attr.Config{Trace: true}},
		}).Report.Attr.Trace()
		if err != nil {
			t.Error(err)
		}
		return log
	}
	logs := Sweep(4, points, func(i int) *trace.Log { return run(uint64(i + 1)) })
	for i, log := range logs {
		states, msgs, span := log.Summary()
		if states == 0 || msgs == 0 || span == 0 {
			t.Errorf("point %d recorded nothing (states=%d msgs=%d span=%v)",
				i, states, msgs, span)
		}
	}
	// Every point used a distinct tracer: totals must match a serial rerun
	// of the same point, which would fail if records crossed tracers.
	ws, wm, _ := run(1).Summary()
	gs, gm, _ := logs[0].Summary()
	if gs != ws || gm != wm {
		t.Errorf("parallel point 0 recorded (%d,%d), serial rerun (%d,%d)",
			gs, gm, ws, wm)
	}
}
