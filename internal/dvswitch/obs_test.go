package dvswitch

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestObsNilIsFree checks a Core without instruments behaves identically to
// one with them: same Stats from the same seeded traffic.
func TestObsNilIsFree(t *testing.T) {
	run := func(attach bool) Stats {
		p := Params{Heights: 4, Angles: 3}
		c := NewCore(p)
		if attach {
			c.SetObs(obs.NewRegistry())
		}
		c.Deliver = func(Packet, int64) {}
		rng := sim.NewRNG(9)
		for cy := 0; cy < 500; cy++ {
			for port := 0; port < p.Ports(); port++ {
				if c.QueueLen(port) < 4 && rng.Float64() < 0.5 {
					c.Inject(Packet{Src: port, Dst: int(rng.Uint64() % uint64(p.Ports()))})
				}
			}
			c.Step()
		}
		c.RunUntilIdle(1 << 20)
		return c.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("instruments changed results:\nwithout: %+v\nwith:    %+v", a, b)
	}
}

// TestCoreStepZeroAllocWithObsCompiledIn is the CI smoke for the zero-cost
// claim: with the obs hooks compiled into the hot path but no instruments
// attached (the default), a steady-state Step performs zero allocations. The
// ledger's dvswitch.core_sparse_ns_per_cycle bounds the time cost; this test
// catches the allocation half without needing a quiet machine.
func TestCoreStepZeroAllocWithObsCompiledIn(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	rng := sim.NewRNG(7)
	ports := p.Ports()
	c.Deliver = func(pkt Packet, _ int64) {
		c.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	}
	for i := 0; i < 2; i++ {
		c.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	for i := 0; i < 512; i++ {
		c.Step() // reach steady state: pool and rings at final size
	}
	if got := testing.AllocsPerRun(2000, func() { c.Step() }); got != 0 {
		t.Errorf("Step allocates %v times per op with obs disabled, want 0", got)
	}
}
