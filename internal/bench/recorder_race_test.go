package bench

import (
	"testing"

	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/trace"
)

// TestRecorderNoRaceUnderParallelSweep exercises trace.Recorder's
// single-goroutine invariant (documented on the type) under the race
// detector: Sweep runs several traced GUPS simulations concurrently, each
// with its own kernel and its own Recorder. State and Message records are
// appended from inside each kernel's event loop — fabric delivery callbacks
// and resumed node procs — so if recorders leaked across sweep points, or a
// kernel ever drove its recorder from two goroutines, `go test -race` flags
// this test. Run it with -race to enforce the invariant.
func TestRecorderNoRaceUnderParallelSweep(t *testing.T) {
	const points = 8
	recs := Sweep(4, points, func(i int) *trace.Recorder {
		rec := trace.New()
		par := gups.Params{
			Nodes:          4,
			TableWordsNode: 1 << 10,
			UpdatesPerNode: 1 << 7,
			Seed:           uint64(i + 1),
			Platform:       cluster.Platform{Trace: rec},
		}
		gups.Run(comm.IB, par)
		return rec
	})
	for i, rec := range recs {
		states, msgs, span := rec.Summary()
		if states == 0 || msgs == 0 || span == 0 {
			t.Errorf("point %d recorded nothing (states=%d msgs=%d span=%v)",
				i, states, msgs, span)
		}
	}
	// Every point used a distinct recorder: totals must match a serial rerun
	// of the same point, which would fail if records crossed recorders.
	rec := trace.New()
	gups.Run(comm.IB, gups.Params{
		Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 1 << 7,
		Seed: 1, Platform: cluster.Platform{Trace: rec},
	})
	ws, wm, _ := rec.Summary()
	gs, gm, _ := recs[0].Summary()
	if gs != ws || gm != wm {
		t.Errorf("parallel point 0 recorded (%d,%d), serial rerun (%d,%d)",
			gs, gm, ws, wm)
	}
}
