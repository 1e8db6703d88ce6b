package dvswitch

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// driveCore runs a deterministic closed-loop workload — every delivery
// re-injects toward a destination drawn from a delivery-order-seeded RNG —
// so any divergence in eject order, routing, or stats snowballs into the
// digest. Returns the final stats and a delivery-order digest.
func driveCore(c *Core, cycles int, load float64) (Stats, uint64) {
	rng := sim.NewRNG(11)
	ports := c.Params().Ports()
	var digest uint64
	c.Deliver = func(pkt Packet, cycle int64) {
		digest = digest*1099511628211 ^ uint64(pkt.Src)<<32 ^ uint64(pkt.Dst)<<16 ^ uint64(cycle)
		c.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	}
	for cy := 0; cy < cycles; cy++ {
		for src := 0; src < ports; src++ {
			if rng.Float64() < load {
				c.Inject(Packet{Src: src, Dst: rng.Intn(ports)})
			}
		}
		c.Step()
	}
	return c.Stats(), digest
}

// TestParStepMatchesSerial pins the tentpole's bit-identity claim at the
// core level: the fanned move phase must reproduce the serial step's stats
// and delivery sequence exactly, at several worker counts, across geometries,
// with the occupancy gate forced open so every cycle exercises the parallel
// path.
func TestParStepMatchesSerial(t *testing.T) {
	geoms := []Params{
		{Heights: 8, Angles: 4},
		{Heights: 32, Angles: 4},
	}
	for _, p := range geoms {
		ref := NewCore(p)
		wantStats, wantDigest := driveCore(ref, 300, 0.7)
		if wantStats.Delivered == 0 {
			t.Fatalf("geom %+v: reference run delivered nothing", p)
		}
		for _, workers := range []int{2, 4, 8} {
			pool := sim.NewFanPool(workers)
			if pool.Workers() == 1 {
				continue // single-CPU machine: nothing to compare
			}
			c := NewCore(p)
			c.SetFanPool(pool, -1)
			gotStats, gotDigest := driveCore(c, 300, 0.7)
			pool.Stop()
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("geom %+v workers=%d: stats diverge from serial:\n got %+v\nwant %+v",
					p, workers, gotStats, wantStats)
			}
			if gotDigest != wantDigest {
				t.Errorf("geom %+v workers=%d: delivery digest %x != serial %x",
					p, workers, gotDigest, wantDigest)
			}
		}
	}
}

// TestParStepOccupancyGate checks the threshold plumbing: with a high gate
// the parallel path must never engage (and results still match), with a
// negative gate it always does.
func TestParStepOccupancyGate(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	ref := NewCore(p)
	wantStats, wantDigest := driveCore(ref, 200, 0.5)
	pool := sim.NewFanPool(4)
	defer pool.Stop()
	for _, gate := range []int{1 << 30, -1, 0} {
		c := NewCore(p)
		c.SetFanPool(pool, gate)
		gotStats, gotDigest := driveCore(c, 200, 0.5)
		if !reflect.DeepEqual(gotStats, wantStats) || gotDigest != wantDigest {
			t.Errorf("gate=%d: run diverges from serial (stats eq=%v digest %x vs %x)",
				gate, reflect.DeepEqual(gotStats, wantStats), gotDigest, wantDigest)
		}
	}
}
