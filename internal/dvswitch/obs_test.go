package dvswitch

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// goldenObsRun drives uniform random traffic through a Core with instruments
// attached, returning both accounting paths for the same events.
func goldenObsRun() (Stats, *obs.Registry) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	reg := obs.NewRegistry()
	c.SetObs(reg)
	c.Deliver = func(Packet, int64) {}
	rng := sim.NewRNG(42)
	for cy := 0; cy < 2000; cy++ {
		for port := 0; port < p.Ports(); port++ {
			if c.QueueLen(port) < 4 && rng.Float64() < 0.6 {
				c.Inject(Packet{Src: port, Dst: int(rng.Uint64() % uint64(p.Ports()))})
			}
		}
		c.Step()
	}
	c.RunUntilIdle(1 << 20)
	return c.Stats(), reg
}

// TestObsMatchesStats pins the contract that the obs instruments are a second
// view of the exact same events Stats counts — same increments, same log2
// bucket math — so LatencyPercentile and MeanDeflections computed from either
// path agree on a golden run.
func TestObsMatchesStats(t *testing.T) {
	st, reg := goldenObsRun()
	if st.Delivered == 0 || st.TotalDeflected == 0 {
		t.Fatalf("degenerate golden run: %+v", st)
	}

	for name, want := range map[string]int64{
		"switch_injected_total":  st.Injected,
		"switch_delivered_total": st.Delivered,
		"switch_dropped_total":   st.Dropped,
		"switch_deflected_total": st.TotalDeflected,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}

	// MeanDeflections from counters must reproduce Stats.MeanDeflections.
	mean := float64(reg.CounterValue("switch_deflected_total")) /
		float64(reg.CounterValue("switch_delivered_total"))
	if got := st.MeanDeflections(); got != mean {
		t.Errorf("MeanDeflections: Stats %v, counters %v", got, mean)
	}

	// The histogram observed every eject latency with the same bucket math as
	// Stats.LatHist, so the two hold the same count in every bucket.
	h := reg.Histogram("switch_latency_cycles")
	if h.Count() != st.Delivered {
		t.Fatalf("histogram count %d, delivered %d", h.Count(), st.Delivered)
	}
	sameBuckets(t, &st, h)

	// Bucket-by-bucket the histograms are identical.
	for i, want := range st.LatHist {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d: obs %d, Stats %d", i, got, want)
		}
	}

	// Per-cylinder deflection counters partition the total.
	var byCyl int64
	for cl := 0; cl < (Params{Heights: 8, Angles: 4}).Cylinders(); cl++ {
		byCyl += reg.CounterValue(fmt.Sprintf("switch_deflected_cyl%d_total", cl))
	}
	if byCyl != st.TotalDeflected {
		t.Errorf("per-cylinder sum %d, total %d", byCyl, st.TotalDeflected)
	}
}

// TestObsNilIsFree checks a Core without instruments behaves identically to
// one with them: same Stats from the same seeded traffic, and detaching works.
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

// TestFastModelObsMatchesStats pins the same two-path equality for the
// analytic model, which accounts deflections in bulk at injection time.
func TestFastModelObsMatchesStats(t *testing.T) {
	k := sim.NewKernel()
	p := Params{Heights: 8, Angles: 4}
	m := NewFastModel(k, p, 2*sim.Nanosecond, sim.NewRNG(17))
	reg := obs.NewRegistry()
	m.SetObs(reg)
	delivered := 0
	m.OnDeliver(func(Packet) { delivered++ })
	rng := sim.NewRNG(3)
	for i := 0; i < 400; i++ {
		src := int(rng.Uint64() % uint64(p.Ports()))
		dst := int(rng.Uint64() % uint64(p.Ports()))
		m.Inject(Packet{Src: src, Dst: dst})
	}
	k.Run()
	st := m.FabricStats()
	if int64(delivered) != st.Delivered {
		t.Fatalf("delivered %d, stats %d", delivered, st.Delivered)
	}
	if got := reg.CounterValue("switch_delivered_total"); got != st.Delivered {
		t.Errorf("delivered counter %d, Stats %d", got, st.Delivered)
	}
	if got := reg.CounterValue("switch_deflected_total"); got != st.TotalDeflected {
		t.Errorf("deflected counter %d, Stats %d", got, st.TotalDeflected)
	}
	sameBuckets(t, &st, reg.Histogram("switch_latency_cycles"))
}

// sameBuckets requires the obs histogram and Stats.LatHist to hold the same
// count in every log2 bucket.
func sameBuckets(t *testing.T, st *Stats, h *obs.Histogram) {
	t.Helper()
	if len(st.LatHist) != obs.HistBuckets {
		t.Fatalf("Stats has %d latency buckets, obs %d", len(st.LatHist), obs.HistBuckets)
	}
	for i, want := range st.LatHist {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d: Stats %d, obs histogram %d", i, want, got)
		}
	}
}
