package dvswitch

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Heights: 8, Angles: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{Heights: 3, Angles: 4}).Validate(); err == nil {
		t.Error("Heights=3 should be rejected")
	}
	if err := (Params{Heights: 8, Angles: 0}).Validate(); err == nil {
		t.Error("Angles=0 should be rejected")
	}
}

func TestCylinderScaling(t *testing.T) {
	// C = log2(H) + 1 per the paper.
	cases := []struct{ h, c int }{{1, 1}, {2, 2}, {4, 3}, {8, 4}, {16, 5}}
	for _, cse := range cases {
		if got := (Params{Heights: cse.h, Angles: 4}).Cylinders(); got != cse.c {
			t.Errorf("Cylinders(H=%d) = %d, want %d", cse.h, got, cse.c)
		}
	}
}

func TestForPorts(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 100, 128} {
		p := ForPorts(n)
		if p.Ports() < n {
			t.Errorf("ForPorts(%d) = %+v with only %d ports", n, p, p.Ports())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ForPorts(%d) invalid: %v", n, err)
		}
	}
}

func TestPortCoordRoundTrip(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	for port := 0; port < p.Ports(); port++ {
		h, a := p.PortCoord(port)
		if h < 0 || h >= p.Heights || a < 0 || a >= p.Angles || h*p.Angles+a != port {
			t.Fatalf("round trip failed for port %d", port)
		}
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	var got []Packet
	c.Deliver = func(pkt Packet, _ int64) { got = append(got, pkt) }
	c.Inject(Packet{Src: 0, Dst: 21, Payload: 0xdead})
	c.RunUntilIdle(1000)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0].Dst != 21 || got[0].Payload != 0xdead {
		t.Fatalf("wrong packet delivered: %+v", got[0])
	}
}

// TestUnloadedLatencyMatchesFormula pins the analytic model to the
// cycle-accurate core: for every (src, dst) pair in a 32-port switch, a lone
// packet's measured latency must equal 1 (injection) + UnloadedFlightCycles.
func TestUnloadedLatencyMatchesFormula(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	for src := 0; src < p.Ports(); src++ {
		for dst := 0; dst < p.Ports(); dst++ {
			c := NewCore(p)
			var lat int64 = -1
			c.Deliver = func(pkt Packet, cycle int64) { lat = cycle - pkt.InjectCycle }
			c.Inject(Packet{Src: src, Dst: dst})
			c.RunUntilIdle(1000)
			want := 1 + UnloadedFlightCycles(p, src, dst)
			if lat != want {
				t.Fatalf("src=%d dst=%d: measured latency %d, formula %d", src, dst, lat, want)
			}
		}
	}
}

// TestAllDeliveredExactlyOnce floods the switch with random traffic and
// checks conservation: every packet is ejected exactly once, at its
// destination port, with payload intact.
func TestAllDeliveredExactlyOnce(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	rng := sim.NewRNG(99)
	const n = 20000
	seen := make(map[uint64]int)
	c.Deliver = func(pkt Packet, _ int64) {
		seen[pkt.Payload]++
		wantDst := int(pkt.Payload >> 32)
		if pkt.Dst != wantDst {
			t.Errorf("packet %x ejected at port %d, want %d", pkt.Payload, pkt.Dst, wantDst)
		}
	}
	for i := 0; i < n; i++ {
		src := rng.Intn(p.Ports())
		dst := rng.Intn(p.Ports())
		c.Inject(Packet{Src: src, Dst: dst, Payload: uint64(dst)<<32 | uint64(i)})
	}
	c.RunUntilIdle(1 << 20)
	if c.Busy() {
		t.Fatal("switch failed to drain")
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct packets, want %d", len(seen), n)
	}
	for pay, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("packet %x delivered %d times", pay, cnt)
		}
	}
	st := c.Stats()
	if st.Delivered != n || st.Injected != n {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDeliveryProperty is the quick-check version over random geometries and
// seeds.
func TestDeliveryProperty(t *testing.T) {
	check := func(seed uint64, hpow, aRaw uint8) bool {
		h := 1 << (hpow%4 + 1) // 2..16
		a := int(aRaw%6) + 1   // 1..6
		p := Params{Heights: h, Angles: a}
		c := NewCore(p)
		rng := sim.NewRNG(seed)
		const n = 500
		delivered := 0
		c.Deliver = func(pkt Packet, _ int64) {
			if int(pkt.Payload) != pkt.Dst {
				t.Errorf("misrouted: %+v", pkt)
			}
			delivered++
		}
		for i := 0; i < n; i++ {
			dst := rng.Intn(p.Ports())
			c.Inject(Packet{Src: rng.Intn(p.Ports()), Dst: dst, Payload: uint64(dst)})
		}
		c.RunUntilIdle(1 << 20)
		return delivered == n && !c.Busy()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestContentionDeflects sends two simultaneous packets to the same output
// port; both must arrive, the loser paying extra cycles, and no buffering is
// ever used (the core has no buffers by construction).
func TestContentionDeflects(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	var lats []int64
	c.Deliver = func(pkt Packet, cycle int64) { lats = append(lats, cycle-pkt.InjectCycle) }
	// Two sources at the same angle, different heights, one destination.
	c.Inject(Packet{Src: 0*p.Angles + 0, Dst: 5*p.Angles + 2})
	c.Inject(Packet{Src: 1*p.Angles + 0, Dst: 5*p.Angles + 2})
	c.RunUntilIdle(1000)
	if len(lats) != 2 {
		t.Fatalf("delivered %d, want 2", len(lats))
	}
	if lats[0] == lats[1] {
		t.Fatalf("same-port ejections in the same cycle: %v", lats)
	}
}

// TestHotspotDrains verifies the deflection fabric tolerates a many-to-one
// hotspot without deadlock or loss (the congestion-tolerance the paper
// attributes to the topology).
func TestHotspotDrains(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	delivered := 0
	c.Deliver = func(Packet, int64) { delivered++ }
	const perPort = 100
	hot := 13
	for src := 0; src < p.Ports(); src++ {
		for i := 0; i < perPort; i++ {
			c.Inject(Packet{Src: src, Dst: hot})
		}
	}
	cycles := c.RunUntilIdle(1 << 22)
	want := perPort * p.Ports()
	if delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	// The output port ejects at most one packet per cycle, so draining takes
	// at least `want` cycles; it should not take wildly more.
	if cycles < int64(want) {
		t.Fatalf("drained %d packets in %d cycles (impossible)", want, cycles)
	}
	if cycles > int64(want)*4 {
		t.Fatalf("hotspot drain took %d cycles for %d packets (too much churn)", cycles, want)
	}
}

// TestSaturationThroughput offers uniform random traffic at full injection
// rate and checks aggregate throughput stays near the port count (the
// "congestion-free" property: only endpoints limit).
func TestSaturationThroughput(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	rng := sim.NewRNG(7)
	delivered := 0
	c.Deliver = func(Packet, int64) { delivered++ }
	const cycles = 4000
	for cy := 0; cy < cycles; cy++ {
		for port := 0; port < p.Ports(); port++ {
			if c.QueueLen(port) < 4 {
				c.Inject(Packet{Src: port, Dst: rng.Intn(p.Ports())})
			}
		}
		c.Step()
	}
	rate := float64(delivered) / float64(cycles) / float64(p.Ports())
	// A fully-subscribed deflection network saturates well below port
	// capacity; real Data Vortex deployments over-provision heights.
	if rate < 0.2 {
		t.Fatalf("saturation throughput %.2f of peak, want >= 0.2", rate)
	}
}

// TestOverProvisionedThroughput uses only half the ports of a larger switch
// (the deployment style the vendor recommends) and expects much better
// per-endpoint throughput than the fully-subscribed case.
func TestOverProvisionedThroughput(t *testing.T) {
	p := Params{Heights: 16, Angles: 4} // 64 ports, 16 endpoints
	c := NewCore(p)
	rng := sim.NewRNG(7)
	delivered := 0
	c.Deliver = func(Packet, int64) { delivered++ }
	endpoints := make([]int, 16)
	for i := range endpoints {
		endpoints[i] = i * 4 // spread across heights
	}
	const cycles = 4000
	for cy := 0; cy < cycles; cy++ {
		for _, port := range endpoints {
			if c.QueueLen(port) < 4 {
				c.Inject(Packet{Src: port, Dst: endpoints[rng.Intn(len(endpoints))]})
			}
		}
		c.Step()
	}
	rate := float64(delivered) / float64(cycles) / float64(len(endpoints))
	if rate < 0.5 {
		t.Fatalf("over-provisioned throughput %.2f of peak, want >= 0.5", rate)
	}
}

// TestPrefixInvariant checks that deflections never un-resolve an
// already-routed height prefix: whenever a packet is ejected, it must be at
// exactly its destination (TestPrefixInvariantPerCycle checks the prefix
// every cycle; this is the end-to-end corollary under heavy contention).
func TestPrefixInvariant(t *testing.T) {
	p := Params{Heights: 16, Angles: 2}
	c := NewCore(p)
	rng := sim.NewRNG(3)
	c.Deliver = func(pkt Packet, _ int64) {
		if int(pkt.Payload) != pkt.Dst {
			t.Fatalf("packet for %d ejected at %d", int(pkt.Payload), pkt.Dst)
		}
	}
	for i := 0; i < 5000; i++ {
		dst := rng.Intn(p.Ports())
		c.Inject(Packet{Src: rng.Intn(p.Ports()), Dst: dst, Payload: uint64(dst)})
	}
	c.RunUntilIdle(1 << 20)
}

func TestStatsAccounting(t *testing.T) {
	p := Params{Heights: 4, Angles: 2}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	c.Inject(Packet{Src: 0, Dst: 5})
	c.Inject(Packet{Src: 1, Dst: 5})
	c.RunUntilIdle(1000)
	st := c.Stats()
	if st.Injected != 2 || st.Delivered != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanLatency() <= 0 {
		t.Fatalf("mean latency %f", st.MeanLatency())
	}
	if st.MaxLatency < int64(st.MeanLatency()) {
		t.Fatalf("max < mean: %+v", st)
	}
}

func TestTrivialGeometryH1(t *testing.T) {
	// H=1 degenerates to a single output ring: pure angle routing.
	p := Params{Heights: 1, Angles: 8}
	c := NewCore(p)
	delivered := 0
	c.Deliver = func(pkt Packet, _ int64) { delivered++ }
	for dst := 0; dst < 8; dst++ {
		c.Inject(Packet{Src: 0, Dst: dst})
	}
	c.RunUntilIdle(1000)
	if delivered != 8 {
		t.Fatalf("delivered %d, want 8", delivered)
	}
}

func TestInjectOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCore(Params{Heights: 4, Angles: 2})
	c.Inject(Packet{Src: 0, Dst: 99})
}

// TestNodeCountFormula pins the paper's §II scaling statement:
// N = A × H × (log2(H)+1) switching nodes for Nt = A×H ports.
func TestNodeCountFormula(t *testing.T) {
	for _, p := range []Params{{4, 2}, {8, 4}, {16, 4}, {32, 8}} {
		want := p.Angles * p.Heights * p.Cylinders()
		c := NewCore(p)
		if got := len(c.grid); got != want {
			t.Errorf("H=%d A=%d: %d switching nodes, want %d", p.Heights, p.Angles, got, want)
		}
	}
}

// TestPortFairness: under uniform saturation no input port starves.
func TestPortFairness(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	delivered := make([]int, p.Ports())
	c.Deliver = func(pkt Packet, _ int64) { delivered[pkt.Src]++ }
	rng := sim.NewRNG(5)
	for cy := 0; cy < 6000; cy++ {
		for port := 0; port < p.Ports(); port++ {
			if c.QueueLen(port) < 4 {
				c.Inject(Packet{Src: port, Dst: rng.Intn(p.Ports())})
			}
		}
		c.Step()
	}
	c.RunUntilIdle(1 << 22)
	min, max := delivered[0], delivered[0]
	for _, d := range delivered {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == 0 {
		t.Fatal("a port starved completely")
	}
	if float64(max)/float64(min) > 6 {
		t.Fatalf("gross unfairness: min %d max %d", min, max)
	}
}

// TestFaultInjectionRoutesAround: with a few dead inner nodes, most traffic
// still delivers (deflections route around), losses are counted exactly,
// and nothing is both delivered and dropped.
func TestFaultInjectionRoutesAround(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	delivered := 0
	c.Deliver = func(Packet, int64) { delivered++ }
	// Kill two mid-fabric nodes.
	c.SetFaulty(1, 3, 2, true)
	c.SetFaulty(2, 5, 1, true)
	rng := sim.NewRNG(12)
	const n = 5000
	for i := 0; i < n; i++ {
		c.Inject(Packet{Src: rng.Intn(p.Ports()), Dst: rng.Intn(p.Ports())})
	}
	c.RunUntilIdle(1 << 22)
	st := c.Stats()
	if int(st.Delivered)+int(st.Dropped) != n {
		t.Fatalf("conservation: delivered %d + dropped %d != %d", st.Delivered, st.Dropped, n)
	}
	if st.Delivered != int64(delivered) {
		t.Fatalf("stats/callback mismatch")
	}
	frac := float64(st.Delivered) / float64(n)
	if frac < 0.90 {
		t.Fatalf("only %.2f delivered with 2 dead nodes; deflection rerouting missing", frac)
	}
	if st.Dropped == 0 {
		t.Log("no drops observed (rerouting covered everything)")
	}
}

// TestFaultRepair: repairing the node restores loss-free delivery.
func TestFaultRepair(t *testing.T) {
	p := Params{Heights: 4, Angles: 2}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	c.SetFaulty(1, 1, 1, true)
	c.SetFaulty(1, 1, 1, false) // repaired
	rng := sim.NewRNG(3)
	for i := 0; i < 1000; i++ {
		c.Inject(Packet{Src: rng.Intn(p.Ports()), Dst: rng.Intn(p.Ports())})
	}
	c.RunUntilIdle(1 << 20)
	if st := c.Stats(); st.Dropped != 0 || st.Delivered != 1000 {
		t.Fatalf("after repair: %+v", st)
	}
}

// TestDeadInjectionPortBlocks: a dead entry node parks its port's queue
// rather than corrupting the fabric.
func TestDeadInjectionPortBlocks(t *testing.T) {
	p := Params{Heights: 4, Angles: 2}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	h, a := p.PortCoord(3)
	c.SetFaulty(0, h, a, true)
	c.Inject(Packet{Src: 3, Dst: 0})
	c.RunUntilIdle(1000)
	if !c.Busy() {
		t.Fatal("packet should still be queued at the dead port")
	}
	if c.QueueLen(3) != 1 {
		t.Fatalf("queue length %d", c.QueueLen(3))
	}
}

// TestLatencyPercentileMonotone: percentiles are ordered and bounded.
func TestLatencyPercentileMonotone(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	rng := sim.NewRNG(9)
	for i := 0; i < 3000; i++ {
		c.Inject(Packet{Src: rng.Intn(p.Ports()), Dst: rng.Intn(p.Ports())})
	}
	c.RunUntilIdle(1 << 20)
	st := c.Stats()
	p50, p90, p99 := st.LatencyPercentile(50), st.LatencyPercentile(90), st.LatencyPercentile(99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("percentiles not monotone: %d %d %d", p50, p90, p99)
	}
	if p99 > 4*st.MaxLatency {
		t.Fatalf("p99 bound %d vs max %d", p99, st.MaxLatency)
	}
}

// TestForPortsEdgeGeometries pins the corner geometries of ForPorts: n=1,
// n=3, assorted non-power-of-two port counts, and the large radixes
// (64/256/1024) the scaling studies run at. Every geometry must be valid,
// sufficiently large, satisfy the paper's A >= C = log2(H)+1 construction,
// and actually route traffic: small cases run full all-to-all, large ones a
// set of port permutations so every port both sends and receives.
func TestForPortsEdgeGeometries(t *testing.T) {
	cases := []struct {
		n            int
		wantH, wantA int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{3, 1, 3},
		{4, 1, 4},
		{5, 2, 3},
		{6, 2, 3},
		{7, 2, 4},
		{9, 4, 3},
		{33, 8, 5},
		{64, 8, 8},
		{100, 16, 7},
		{256, 32, 8},
		{1024, 128, 8},
	}
	for _, cse := range cases {
		p := ForPorts(cse.n)
		if p.Heights != cse.wantH || p.Angles != cse.wantA {
			t.Errorf("ForPorts(%d) = %+v, want {%d %d}", cse.n, p, cse.wantH, cse.wantA)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ForPorts(%d) invalid: %v", cse.n, err)
		}
		if p.Ports() < cse.n {
			t.Errorf("ForPorts(%d) has only %d ports", cse.n, p.Ports())
		}
		if c := p.Cylinders(); p.Angles < c {
			t.Errorf("ForPorts(%d) = %+v: Angles < Cylinders (%d)", cse.n, p, c)
		}
		nt := p.Ports()
		c := NewCore(p)
		delivered := 0
		c.Deliver = func(pkt Packet, _ int64) {
			if int(pkt.Payload) != pkt.Dst {
				t.Errorf("ForPorts(%d): misrouted %+v", cse.n, pkt)
			}
			delivered++
		}
		want := 0
		if nt <= 64 {
			// Small geometries deliver full all-to-all.
			for src := 0; src < nt; src++ {
				for dst := 0; dst < nt; dst++ {
					c.Inject(Packet{Src: src, Dst: dst, Payload: uint64(dst)})
				}
			}
			want = nt * nt
		} else {
			// Large geometries: shifted permutations — every port sends to,
			// and receives from, several distinct partners.
			for _, shift := range []int{1, nt/2 + 1, nt - 3} {
				for src := 0; src < nt; src++ {
					dst := (src + shift) % nt
					c.Inject(Packet{Src: src, Dst: dst, Payload: uint64(dst)})
				}
			}
			want = 3 * nt
		}
		c.RunUntilIdle(1 << 22)
		if delivered != want {
			t.Errorf("ForPorts(%d): delivered %d of %d", cse.n, delivered, want)
		}
	}
}

// TestLatencyHistogramBuckets pins recordLatency's log2 bucketing at the
// boundaries: bucket i counts latencies in [2^i, 2^(i+1)).
func TestLatencyHistogramBuckets(t *testing.T) {
	var s Stats
	for _, lat := range []int64{1, 2, 3, 4, 7, 8, 1 << 20} {
		s.recordLatency(lat)
	}
	want := map[int]int64{0: 1, 1: 2, 2: 2, 3: 1, 20: 1}
	for i, cnt := range s.LatHist {
		if cnt != want[i] {
			t.Errorf("LatHist[%d] = %d, want %d", i, cnt, want[i])
		}
	}
	// Sub-cycle latencies clamp into bucket 0; absurd ones into the last.
	var s2 Stats
	s2.recordLatency(0)
	s2.recordLatency(1 << 62)
	if s2.LatHist[0] != 1 || s2.LatHist[len(s2.LatHist)-1] != 1 {
		t.Errorf("clamping failed: %v", s2.LatHist)
	}
	if s2.MaxLatency != 1<<62 {
		t.Errorf("MaxLatency = %d", s2.MaxLatency)
	}
}

// TestLatencyPercentileBucketBoundaries pins LatencyPercentile's bucket
// arithmetic: the returned value is the upper boundary 2^(i+1) of the first
// bucket that covers the target rank.
func TestLatencyPercentileBucketBoundaries(t *testing.T) {
	var s Stats
	// 90 packets at latency 1 (bucket 0), 10 at latency 8 (bucket 3).
	for i := 0; i < 90; i++ {
		s.recordLatency(1)
	}
	for i := 0; i < 10; i++ {
		s.recordLatency(8)
	}
	s.Delivered = 100
	s.MaxLatency = 8
	cases := []struct {
		p    float64
		want int64
	}{
		{1, 2},    // rank 1 is in bucket 0 -> boundary 2
		{90, 2},   // rank 90 still bucket 0
		{91, 16},  // rank 91 falls into bucket 3 -> boundary 16
		{100, 16}, // rank 100 likewise
		{0.1, 2},  // tiny p clamps the target rank to 1
	}
	for _, cse := range cases {
		if got := s.LatencyPercentile(cse.p); got != cse.want {
			t.Errorf("LatencyPercentile(%v) = %d, want %d", cse.p, got, cse.want)
		}
	}
	// No deliveries: falls through to MaxLatency (zero value).
	var empty Stats
	if got := empty.LatencyPercentile(99); got != 0 {
		t.Errorf("empty LatencyPercentile = %d, want 0", got)
	}
}

// TestEntryCellIsPort pins the layout fact injectPhase rests on: port p
// enters at cylinder-0 cell p, so the ports with a free entry node are
// qmask &^ nxtMask, word for word. It holds for every geometry ForPorts
// builds and for Angles counts that are odd or not powers of two.
func TestEntryCellIsPort(t *testing.T) {
	geoms := []Params{{Heights: 16, Angles: 5}, {Heights: 4, Angles: 3}, {Heights: 1, Angles: 7}}
	for n := 1; n <= 2048; n++ {
		geoms = append(geoms, ForPorts(n))
	}
	for _, p := range geoms {
		c := &Core{p: p}
		for port := 0; port < p.Ports(); port++ {
			h, a := p.PortCoord(port)
			if at := c.idx(0, h, a); at != port {
				t.Fatalf("%+v: port %d enters at cell %d", p, port, at)
			}
		}
	}
}

// TestCellTabIs24Bytes keeps the routing table at 24 bytes per cell: five
// int32 cell fields, the cylinder and the resolved bit.
func TestCellTabIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cellTab{}); got != 24 {
		t.Fatalf("cellTab is %d bytes, want 24", got)
	}
}
