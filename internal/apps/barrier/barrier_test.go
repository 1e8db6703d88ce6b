package barrier

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

func TestAllImplsComplete(t *testing.T) {
	for _, impl := range []Impl{DVIntrinsic, DVFastBarrier, MPIBarrier} {
		r := Run(impl, 4, 10)
		if r.Latency <= 0 {
			t.Errorf("%v: latency %v", impl, r.Latency)
		}
	}
}

// TestFigure4Shape pins the scaling behaviour of Figure 4: the MPI barrier
// degrades steeply past 8 nodes while both Data Vortex barriers stay flat,
// and at 32 nodes the DV intrinsic barrier is several times faster than MPI.
func TestFigure4Shape(t *testing.T) {
	const iters = 30
	lat := func(impl Impl, n int) sim.Time { return Run(impl, n, iters).Latency }

	dv2, dv32 := lat(DVIntrinsic, 2), lat(DVIntrinsic, 32)
	fb32 := lat(DVFastBarrier, 32)
	mpi2, mpi32 := lat(MPIBarrier, 2), lat(MPIBarrier, 32)

	if dv32 > 4*dv2 {
		t.Errorf("DV intrinsic not flat: %v @2 vs %v @32", dv2, dv32)
	}
	if float64(mpi32) < 3*float64(mpi2) {
		t.Errorf("MPI barrier should grow with nodes: %v @2 vs %v @32", mpi2, mpi32)
	}
	if mpi32 < 3*dv32 {
		t.Errorf("at 32 nodes MPI (%v) should be well above DV intrinsic (%v)", mpi32, dv32)
	}
	if fb32 > mpi32 {
		t.Errorf("Fast Barrier (%v) should beat MPI (%v) at 32 nodes", fb32, mpi32)
	}
	// Rough absolute ranges from the figure: DV ≈ 1–3 µs, MPI(32) ≈ 8–16 µs.
	if dv32 > 4*sim.Microsecond {
		t.Errorf("DV intrinsic at 32 nodes = %v, want a few µs", dv32)
	}
	if mpi32 < 4*sim.Microsecond || mpi32 > 30*sim.Microsecond {
		t.Errorf("MPI at 32 nodes = %v, want ~10µs", mpi32)
	}
}

// TestFastBarrierActuallySynchronises checks correctness of the all-to-all
// barrier under skewed arrivals, repeated across epochs.
func TestFastBarrierActuallySynchronises(t *testing.T) {
	const n = 8
	const iters = 12
	cfg := cluster.DefaultConfig(n)
	cfg.Stacks = cluster.StackDV
	phase := make([]int, n)
	violated := false
	cluster.Run(cfg, func(nd *cluster.Node) {
		bar := newFastBarrier(nd, comm.New(comm.DV, nd), 0)
		for it := 0; it < iters; it++ {
			nd.Compute(sim.Time(nd.RNG.Intn(3000)) * sim.Nanosecond)
			phase[nd.ID]++
			bar()
			for j := 0; j < n; j++ {
				if phase[j] != it+1 {
					violated = true
				}
			}
			bar()
		}
	})
	if violated {
		t.Fatal("fast barrier failed to synchronise")
	}
}
