package dvswitch

import (
	"testing"

	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// TestCoreStepZeroAllocWithAttrCompiledIn is the attribution half of the
// zero-cost claim: with the heat-census hook compiled into the deflection
// path but no census attached (the default), a steady-state Step performs
// zero allocations. The ledger's dvswitch.core_sparse_ns_per_cycle bounds the
// time cost; this catches the allocation half without needing a quiet machine.
func TestCoreStepZeroAllocWithAttrCompiledIn(t *testing.T) {
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
		t.Errorf("Step allocates %v times per op with attr disabled, want 0", got)
	}
}

// TestFastModelInjectZeroAllocWithAttrCompiledIn pins the same property for
// the analytic model's injection path: the attr seam is one pointer test
// when no tracer is attached.
func TestFastModelInjectZeroAllocWithAttrCompiledIn(t *testing.T) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	m.OnDeliver(func(Packet) {})
	rng := sim.NewRNG(5)
	ports := m.Ports()
	// Warm the train pages past the largest burst the measured loop will
	// issue (random destinations skew the in-flight peak), so the yard's free
	// pages and the kernel's event heap hold their high-water capacity.
	for w := 0; w < 512; w++ {
		for i := 0; i < 64; i++ {
			m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		k.RunUntil(1 << 40)
	}
	got := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		k.RunUntil(1 << 40)
	})
	if got != 0 {
		t.Errorf("FastModel inject+drain allocates %v times per burst with attr disabled, want 0", got)
	}
}

// TestHeatCensusMatchesStats cross-checks the two deflection accountings:
// with the census attached, the summed heat cells must equal the stats
// counter once every packet has drained (both count deflection-path
// traversals; neither samples).
func TestHeatCensusMatchesStats(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	for _, dense := range []bool{false, true} {
		c := NewCore(p)
		c.Dense = dense
		c.Deliver = func(Packet, int64) {}
		h := &attr.Heat{Cylinders: p.Cylinders(), Angles: p.Angles,
			Cells: make([]int64, p.Cylinders()*p.Angles)}
		c.SetHeat(h)
		rng := sim.NewRNG(11)
		ports := p.Ports()
		for cy := 0; cy < 400; cy++ {
			for src := 0; src < ports; src++ {
				if rng.Float64() < 0.6 {
					c.Inject(Packet{Src: src, Dst: rng.Intn(ports)})
				}
			}
			c.Step()
		}
		c.RunUntilIdle(1 << 20)
		st := c.Stats()
		if st.TotalDeflected == 0 {
			t.Fatalf("dense=%v: no deflections at 0.6 load; traffic too light to test", dense)
		}
		if h.Total() != st.TotalDeflected {
			t.Errorf("dense=%v: heat census total %d != stats deflections %d",
				dense, h.Total(), st.TotalDeflected)
		}
	}
}

// TestEnginesAgreeOnUnloadedStages pins where each engine puts a traced
// packet's fabric entry. A lone packet injected on the cycle grid into an
// idle fabric waits one cycle to enter, on both engines, and then spends
// the same time in the fabric unless the fast model drew a deflection. The
// stage-sum invariant cannot see a wrong entry: the sum telescopes whatever
// the split between inject_wait and fabric.
func TestEnginesAgreeOnUnloadedStages(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	stages := func(cycle bool, src, dst int) (wait, fabric sim.Time, defl int32) {
		k := sim.NewKernel()
		tr := attr.NewTracer(&attr.Config{Sample: 1}, WireBytes)
		var f Fabric
		if cycle {
			e := NewEngine(k, p, DefaultCycleTime)
			e.SetAttr(tr)
			f = e
		} else {
			m := NewFastModel(k, p, DefaultCycleTime, sim.NewRNG(uint64(src*p.Ports()+dst)))
			m.SetAttr(tr)
			f = m
		}
		f.OnDeliver(func(pkt Packet) { tr.Complete(pkt.Flow, k.Now()) })
		f.Inject(Packet{Src: src, Dst: dst, Flow: tr.Begin(src, dst, attr.KindWrite, 0)})
		k.Run()
		fl := tr.At(0)
		return fl.Dur[attr.StageInjectWait], fl.Dur[attr.StageFabric], fl.Deflections
	}
	compared := 0
	for src := 0; src < p.Ports(); src += 3 {
		for dst := 0; dst < p.Ports(); dst += 5 {
			cw, cf, _ := stages(true, src, dst)
			fw, ff, defl := stages(false, src, dst)
			if cw != DefaultCycleTime || fw != DefaultCycleTime {
				t.Errorf("src=%d dst=%d: inject wait %v on the engine, %v on the fast model; want one cycle", src, dst, cw, fw)
			}
			if defl == 0 {
				compared++
				if cf != ff {
					t.Errorf("src=%d dst=%d: fabric stage %v on the engine, %v on the fast model", src, dst, cf, ff)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("the fast model deflected every packet; no fabric stage was compared")
	}
}
