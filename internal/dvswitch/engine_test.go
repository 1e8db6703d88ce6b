package dvswitch

import (
	"testing"

	"repro/internal/faultplan"
	"repro/internal/sim"
)

func TestEngineDeliversInVirtualTime(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime)
	var at sim.Time
	var got *Packet
	e.OnDeliver(func(pkt Packet) { p := pkt; got = &p; at = k.Now() })
	k.Spawn("src", func(p *sim.Proc) {
		p.Wait(100 * sim.Nanosecond)
		e.Inject(Packet{Src: 3, Dst: 17, Payload: 42})
	})
	k.Run()
	if got == nil {
		t.Fatal("no delivery")
	}
	if got.Payload != 42 || got.Dst != 17 {
		t.Fatalf("wrong packet: %+v", got)
	}
	want := 100*sim.Nanosecond + sim.Time(1+UnloadedFlightCycles(e.core.p, 3, 17))*DefaultCycleTime
	// Delivery lands on the cycle grid, so allow up to one cycle of
	// alignment skew relative to the injection instant.
	if at < want-DefaultCycleTime || at > want+DefaultCycleTime {
		t.Fatalf("delivered at %v, want about %v", at, want)
	}
}

func TestEnginePumpDisarmsWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Params{Heights: 4, Angles: 2}, DefaultCycleTime)
	deliveries := 0
	e.OnDeliver(func(Packet) { deliveries++ })
	k.Spawn("src", func(p *sim.Proc) {
		e.Inject(Packet{Src: 0, Dst: 7})
		p.Wait(10 * sim.Microsecond) // long idle gap
		e.Inject(Packet{Src: 0, Dst: 7})
	})
	end := k.Run()
	if deliveries != 2 {
		t.Fatalf("deliveries = %d", deliveries)
	}
	// End time is bounded by the second injection plus flight, far less than
	// continuous pumping would produce.
	if end > 20*sim.Microsecond {
		t.Fatalf("end = %v; pump seems to have free-run", end)
	}
}

// TestEngineAfterIdleGap: an engine steps its core only while traffic is
// queued or in flight, so each row lets a 32-port fabric sit idle for 100 µs
// before traffic arrives and checks that the core's clock, which fault
// windows and injection cycles are read against, reads virtual time.
func TestEngineAfterIdleGap(t *testing.T) {
	const gap = 100 * sim.Microsecond
	geom := ForPorts(32)
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{name: "the core's clock reads the delivery time", run: func(t *testing.T) {
			k := sim.NewKernel()
			e := NewEngine(k, geom, DefaultCycleTime)
			var got Packet
			var at sim.Time
			e.OnDeliver(func(pkt Packet) { got, at = pkt, k.Now() })
			k.At(gap, func() { e.Inject(Packet{Src: 0, Dst: 17}) })
			k.Run()
			if at == 0 {
				t.Fatal("no delivery")
			}
			if c := e.Core().Cycle(); c != int64(at/DefaultCycleTime) {
				t.Errorf("Core.Cycle() = %d after the delivery at %v, want %d", c, at, at/DefaultCycleTime)
			}
			if got.InjectCycle != int64(gap/DefaultCycleTime) {
				t.Errorf("InjectCycle = %d, want %d", got.InjectCycle, gap/DefaultCycleTime)
			}
		}},
		{name: "a fault window that opens in the gap drops packets on both engines", run: func(t *testing.T) {
			for _, fast := range []bool{false, true} {
				k := sim.NewKernel()
				plan := &faultplan.Plan{Seed: 3, DropProb: 0.05, Window: faultplan.Window{Start: gap / 2}}
				var f interface {
					Fabric
					ApplyPlan(*faultplan.Plan)
				}
				if fast {
					f = NewFastModel(k, geom, DefaultCycleTime, sim.NewRNG(5))
				} else {
					f = NewEngine(k, geom, DefaultCycleTime)
				}
				f.ApplyPlan(plan)
				rng := sim.NewRNG(7)
				pkts := make([]Packet, 256)
				for i := range pkts {
					pkts[i] = Packet{Src: rng.Intn(32), Dst: rng.Intn(32)}
				}
				k.At(gap, func() { f.InjectBatch(pkts) })
				k.Run()
				if st := f.FabricStats(); st.Dropped == 0 {
					t.Errorf("fast=%v: no drops among %d packets inside the window", fast, st.Injected)
				}
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, tt.run)
	}
}

func TestFastModelMatchesCoreUnloaded(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	for src := 0; src < p.Ports(); src += 3 {
		for dst := 0; dst < p.Ports(); dst += 5 {
			// Core measurement.
			c := NewCore(p)
			var coreLat int64 = -1
			c.Deliver = func(pkt Packet, cycle int64) { coreLat = cycle - pkt.InjectCycle }
			c.Inject(Packet{Src: src, Dst: dst})
			c.RunUntilIdle(1000)

			// Fast model measurement with deflection sampling disabled via
			// a fresh RNG whose first draws exceed the base probability is
			// not reliable; instead assert the deterministic part.
			base := 1 + UnloadedFlightCycles(p, src, dst)
			if coreLat != base {
				t.Fatalf("src=%d dst=%d: core=%d formula=%d", src, dst, coreLat, base)
			}
		}
	}
}

func TestFastModelDelivery(t *testing.T) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(1))
	const n = 1000
	delivered := 0
	m.OnDeliver(func(pkt Packet) {
		if int(pkt.Payload) != pkt.Dst {
			t.Errorf("misrouted %+v", pkt)
		}
		delivered++
	})
	rng := sim.NewRNG(2)
	k.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			dst := rng.Intn(m.Ports())
			m.Inject(Packet{Src: rng.Intn(m.Ports()), Dst: dst, Payload: uint64(dst)})
			p.Wait(sim.Nanosecond)
		}
	})
	k.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	st := m.FabricStats()
	if st.Delivered != n {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFastModelPortSerialisation(t *testing.T) {
	// Many packets from one source port must take at least 1 cycle each.
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(1))
	var last sim.Time
	m.OnDeliver(func(Packet) { last = k.Now() })
	const n = 500
	k.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m.Inject(Packet{Src: 0, Dst: 9})
		}
	})
	k.Run()
	if min := sim.Time(n) * DefaultCycleTime; last < min {
		t.Fatalf("drained %d same-port packets in %v, min is %v", n, last, min)
	}
}

func TestFastModelDeterminism(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel()
		m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(5))
		rng := sim.NewRNG(6)
		m.OnDeliver(func(Packet) {})
		k.Spawn("src", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				m.Inject(Packet{Src: rng.Intn(32), Dst: rng.Intn(32)})
				p.Wait(sim.Time(rng.Intn(5)) * sim.Nanosecond)
			}
		})
		return k.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestFastModelLoadedCalibration runs identical random traffic through both
// engines and requires the fast model's loaded mean latency to stay within
// a small factor of the cycle-accurate ground truth (the calibration claim
// DESIGN.md makes).
func TestFastModelLoadedCalibration(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	type traffic struct{ src, dst int }
	rng := sim.NewRNG(41)
	var plan []traffic
	for i := 0; i < 4000; i++ {
		plan = append(plan, traffic{rng.Intn(p.Ports()), rng.Intn(p.Ports())})
	}
	run := func(fab func(k *sim.Kernel) Fabric) Stats {
		k := sim.NewKernel()
		f := fab(k)
		f.OnDeliver(func(Packet) {})
		k.Spawn("src", func(pr *sim.Proc) {
			for i, tr := range plan {
				f.Inject(Packet{Src: tr.src, Dst: tr.dst})
				if i%8 == 7 {
					pr.Wait(4 * DefaultCycleTime) // ~0.25 load per port overall
				}
			}
		})
		k.Run()
		return f.FabricStats()
	}
	core := run(func(k *sim.Kernel) Fabric { return NewEngine(k, p, DefaultCycleTime) })
	fast := run(func(k *sim.Kernel) Fabric {
		return NewFastModel(k, p, DefaultCycleTime, sim.NewRNG(2))
	})
	if core.Delivered != int64(len(plan)) || fast.Delivered != int64(len(plan)) {
		t.Fatalf("deliveries: core %d fast %d", core.Delivered, fast.Delivered)
	}
	ratio := fast.MeanLatency() / core.MeanLatency()
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("loaded latency calibration off: core %.1f vs fast %.1f cycles (ratio %.2f)",
			core.MeanLatency(), fast.MeanLatency(), ratio)
	}
}
