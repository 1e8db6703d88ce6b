package dvswitch

import (
	"testing"

	"repro/internal/sim"
)

// benchCore builds a 32-port core whose Deliver keeps a fixed population of
// packets in flight by reinjecting every delivery. inFlight controls the
// steady-state occupancy: 2 packets ≈ 1% of the 160-node fabric (the sparse
// case), ports*4 keeps every injection queue busy (the saturated case).
func benchCore(inFlight int) *Core {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	rng := sim.NewRNG(7)
	ports := p.Ports()
	c.Deliver = func(pkt Packet, _ int64) {
		c.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	}
	for i := 0; i < inFlight; i++ {
		c.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	// Warm up: reach steady state (pool and rings at final size) before the
	// timer starts, so the measured loop is allocation-free.
	for i := 0; i < 512; i++ {
		c.Step()
	}
	return c
}

// benchLoop times op with allocation reporting on.
func benchLoop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}

// BenchmarkCoreStepSparse is the acceptance benchmark: 32-port switch at ~1%
// occupancy, where the bitmap walk visits two nodes instead of 160.
func BenchmarkCoreStepSparse(b *testing.B) { benchLoop(b, benchCore(2).Step) }

// BenchmarkCoreStepSaturated keeps every injection queue busy (every entry
// node is refilled as soon as it frees); the sparse bitmap walk runs at this
// occupancy too.
func BenchmarkCoreStepSaturated(b *testing.B) { benchLoop(b, benchCore(32*4).Step) }

// injectDrainBurst returns one full burst-and-drain on a warm 32-port core:
// 512 packets injected, then stepped to empty.
func injectDrainBurst(tb testing.TB) func() {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	rng := sim.NewRNG(11)
	ports := p.Ports()
	burst := func() {
		for i := 0; i < 512; i++ {
			c.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		c.RunUntilIdle(1 << 20)
		if c.Busy() {
			tb.Fatal("drain did not converge")
		}
	}
	// A burst can have at most 512 packets live at once, so prewarming to
	// that high-water mark makes every iteration provably allocation-free —
	// a warmup burst alone leaves the pool sized to the first burst's peak,
	// and a later RNG draw can exceed it.
	c.Prewarm(512)
	burst() // warm the RNG-independent scratch state too
	return burst
}

// BenchmarkInjectDrain measures a full burst-and-drain. Steady-state
// iterations reuse the pool and rings, so this must be allocation-free too.
func BenchmarkInjectDrain(b *testing.B) { benchLoop(b, injectDrainBurst(b)) }

// BenchmarkFastModelInject measures the calibrated fast model's injection
// path; the delivery records wait on train pages the yard reuses, so it is
// one alloc-free kernel event per packet in steady state.
func BenchmarkFastModelInject(b *testing.B) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	m.OnDeliver(func(Packet) {})
	rng := sim.NewRNG(5)
	ports := m.Ports()
	// Warm up the train pages.
	for i := 0; i < 64; i++ {
		m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	k.RunUntil(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < 64; i++ {
			m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		k.RunUntil(1 << 40)
	}
}

// BenchmarkFastModelInjectDeep is FastModelInject under a deep backlog: a
// closed loop over a 128-port fabric keeps 4,096 packets in flight. They wait
// in the per-port delivery trains, so the kernel's event heap holds one event
// per port (128). Per op = 1024 fired events, each of which re-injects.
func BenchmarkFastModelInjectDeep(b *testing.B) { benchLoop(b, fastModelDeepLoop()) }

// fastModelDeepLoop returns BenchmarkFastModelInjectDeep's op on a warm model.
func fastModelDeepLoop() func() {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 32, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	rng := sim.NewRNG(5)
	ports := m.Ports()
	m.OnDeliver(func(pkt Packet) {
		m.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	})
	for i := 0; i < 4096; i++ {
		m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	// Reach steady state: pools, rings, and the event heap warm.
	k.RunUntilN(1<<40, 1<<17)
	return func() { k.RunUntilN(1<<40, 1024) }
}

// TestSteadyStateZeroAllocs holds the benchmarks above that must not allocate
// once warm to exactly that, deterministically and in tier-1 (the sparse Step
// and the shallow fast-model burst have their own tests:
// TestCoreStepZeroAllocWith{Obs,Attr}CompiledIn, TestFastModelInjectAllocs).
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs int
		op   func()
	}{
		{"CoreStepSaturated", 2000, benchCore(32 * 4).Step},
		{"InjectDrain", 20, injectDrainBurst(t)},
		{"FastModelInjectDeep", 100, fastModelDeepLoop()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(tc.runs, tc.op); got != 0 {
				t.Errorf("allocates %v times per op in steady state, want 0", got)
			}
		})
	}
}
