package dvswitch

import (
	"slices"
	"testing"

	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// mpHarness builds an n-plane fast-model fabric on a fresh kernel.
func mpHarness(t *testing.T, planes int, geom Params) (*sim.Kernel, *MultiPlane) {
	t.Helper()
	k := sim.NewKernel()
	rng := sim.NewRNG(11)
	fabrics := make([]Fabric, planes)
	for i := range fabrics {
		fabrics[i] = NewFastModel(k, geom, DefaultCycleTime, rng.Split())
	}
	return k, NewMultiPlane(fabrics)
}

// TestPlaneHashPinned pins the plane-selection hash: it is part of the
// determinism contract (changing it changes every multi-plane Report), so an
// accidental edit must fail loudly here, not as a silent golden drift.
func TestPlaneHashPinned(t *testing.T) {
	cases := []struct {
		src, dst int
		want     uint64
	}{
		{0, 0, planeHash(0, 0)}, // self-consistency anchor for the table below
		{0, 1, 0x5692161d100b05e5},
		{1, 0, 0xd820b7e910b0f93f},
		{31, 17, 0x67ac4f833d0bb2c3},
	}
	for _, cse := range cases[1:] {
		if got := planeHash(cse.src, cse.dst); got != cse.want {
			t.Errorf("planeHash(%d, %d) = %#x, want %#x", cse.src, cse.dst, got, cse.want)
		}
	}
	if planeHash(0, 1) == planeHash(1, 0) {
		t.Error("hash is symmetric in (src, dst); pairs would collide")
	}
}

// TestMultiPlaneSpreadsAndMerges drives uniform traffic through a 4-plane
// fabric: every plane must carry traffic, the merged stats must equal the
// per-plane sums, and all packets must deliver.
func TestMultiPlaneSpreadsAndMerges(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4}
	k, m := mpHarness(t, 4, geom)
	delivered := 0
	m.OnDeliver(func(Packet) { delivered++ })
	rng := sim.NewRNG(5)
	const pkts = 2000
	for i := 0; i < pkts; i++ {
		m.Inject(Packet{Src: rng.Intn(geom.Ports()), Dst: rng.Intn(geom.Ports())})
	}
	k.Run()
	if delivered != pkts {
		t.Fatalf("delivered %d of %d", delivered, pkts)
	}
	st := m.FabricStats()
	if st.Injected != pkts || st.Delivered != pkts {
		t.Errorf("merged stats %+v", st)
	}
	var sum Stats
	for _, pl := range m.planes {
		pst := pl.FabricStats()
		if pst.Injected == 0 {
			t.Error("a plane carried no traffic")
		}
		sum.Merge(pst)
	}
	if sum != st {
		t.Errorf("merge mismatch:\nmerged: %+v\nsummed: %+v", st, sum)
	}
}

// TestMultiPlaneHashPairAffinity: every packet of a port pair rides the same
// plane, so a pair's packets stay in order across planes.
func TestMultiPlaneHashPairAffinity(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4}
	_, m := mpHarness(t, 4, geom)
	for i := 0; i < 64; i++ {
		m.Inject(Packet{Src: 3, Dst: 9})
	}
	used := map[int]int64{}
	for pl, f := range m.planes {
		if st := f.FabricStats(); st.Injected > 0 {
			used[pl] = st.Injected
		}
	}
	if len(used) != 1 {
		t.Errorf("one pair spread over %d planes: %v", len(used), used)
	}
}

// TestMultiPlaneBatchMatchesPerPacket: InjectBatch must be semantically
// identical to per-element Inject — same per-plane assignment, same
// per-plane order, hence identical merged stats and delivery sets.
func TestMultiPlaneBatchMatchesPerPacket(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4}
	mkTraffic := func() []Packet {
		rng := sim.NewRNG(17)
		pkts := make([]Packet, 1500)
		for i := range pkts {
			pkts[i] = Packet{Src: rng.Intn(geom.Ports()), Dst: rng.Intn(geom.Ports()),
				Header: uint64(i)}
		}
		return pkts
	}
	run := func(batch bool) (Stats, map[uint64]bool) {
		k, m := mpHarness(t, 3, geom)
		got := map[uint64]bool{}
		m.OnDeliver(func(pkt Packet) { got[pkt.Header] = true })
		pkts := mkTraffic()
		if batch {
			m.InjectBatch(pkts)
		} else {
			for _, pkt := range pkts {
				m.Inject(pkt)
			}
		}
		k.Run()
		return m.FabricStats(), got
	}
	bSt, bGot := run(true)
	pSt, pGot := run(false)
	if bSt != pSt {
		t.Errorf("stats diverge:\nbatch:      %+v\nper-packet: %+v", bSt, pSt)
	}
	if len(bGot) != len(pGot) {
		t.Errorf("delivery sets diverge: %d vs %d", len(bGot), len(pGot))
	}
}

// TestMultiPlaneDeterministic: two identical multi-plane runs produce
// identical delivery sequences and stats, for both engines behind the planes.
func TestMultiPlaneDeterministic(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4}
	for _, engine := range []string{"fast", "cycle"} {
		run := func() (Stats, []Packet) {
			k := sim.NewKernel()
			rng := sim.NewRNG(11)
			fabrics := make([]Fabric, 2)
			for i := range fabrics {
				if engine == "cycle" {
					fabrics[i] = NewEngine(k, geom, DefaultCycleTime)
					_ = rng.Split() // keep RNG consumption aligned across engines
				} else {
					fabrics[i] = NewFastModel(k, geom, DefaultCycleTime, rng.Split())
				}
			}
			m := NewMultiPlane(fabrics)
			var seq []Packet
			m.OnDeliver(func(pkt Packet) { seq = append(seq, pkt) })
			trng := sim.NewRNG(23)
			for i := 0; i < 800; i++ {
				m.Inject(Packet{Src: trng.Intn(geom.Ports()), Dst: trng.Intn(geom.Ports()),
					Header: uint64(i)})
			}
			k.Run()
			return m.FabricStats(), seq
		}
		aSt, aSeq := run()
		bSt, bSeq := run()
		if aSt != bSt {
			t.Errorf("%s: stats diverge across identical runs", engine)
		}
		if len(aSeq) != len(bSeq) {
			t.Fatalf("%s: sequence lengths diverge: %d vs %d", engine, len(aSeq), len(bSeq))
		}
		for i := range aSeq {
			if aSeq[i] != bSeq[i] {
				t.Fatalf("%s: delivery %d diverges: %+v vs %+v", engine, i, aSeq[i], bSeq[i])
			}
		}
		if aSt.Delivered != 800 {
			t.Errorf("%s: delivered %d of 800", engine, aSt.Delivered)
		}
	}
}

// fabricPorts offers Traffic's load through a fabric while reading the
// injection queues of the core behind it.
type fabricPorts struct {
	*Core
	f Fabric
}

func (a fabricPorts) Inject(pkt Packet) { a.f.Inject(pkt) }

// delivery is what a fabric shows of one packet's arrival.
type delivery struct {
	at                    sim.Time
	src, dst, hops, defls int
}

// TestOnePlaneIsTheUnwrappedEngine: a traced cycle-accurate engine behind a
// one-plane MultiPlane delivers the same packets at the same times with the
// same hops and deflections, keeps the same Stats and stamps the same stage
// durations as the engine alone, under uniform and hotspot load. Run uses
// the unwrapped engine for one plane; this is what makes that choice free.
func TestOnePlaneIsTheUnwrappedEngine(t *testing.T) {
	p := Params{Heights: 8, Angles: 4}
	for _, pattern := range []string{"uniform", "hotspot"} {
		run := func(wrap bool) ([]delivery, Stats, [attr.NumStages]attr.StageAgg) {
			k := sim.NewKernel()
			eng := NewEngine(k, p, DefaultCycleTime)
			tr := attr.NewTracer(&attr.Config{Sample: 1}, WireBytes)
			eng.SetAttr(tr)
			var fab Fabric = eng
			if wrap {
				fab = NewMultiPlane([]Fabric{eng})
			}
			var seq []delivery
			fab.OnDeliver(func(pkt Packet) {
				seq = append(seq, delivery{k.Now(), pkt.Src, pkt.Dst, pkt.Hops, pkt.Deflections})
				tr.Complete(pkt.Flow, k.Now())
			})
			traffic := Traffic{Pattern: pattern, Load: 0.4, Hot: p.Ports() / 3, QueueCap: 8}
			rng := sim.NewRNG(5)
			begin := func(pkt Packet) Packet {
				pkt.Flow = tr.Begin(pkt.Src, pkt.Dst, attr.KindWrite, k.Now())
				return pkt
			}
			for cy := 0; cy < 500; cy++ {
				k.At(sim.Time(cy)*DefaultCycleTime, func() { traffic.Offer(fabricPorts{eng.Core(), fab}, rng, begin) })
			}
			k.Run()
			return seq, fab.FabricStats(), tr.Finalize(k.Now()).Stages
		}
		seq, st, stages := run(false)
		wseq, wst, wstages := run(true)
		if st.Delivered == 0 || st.TotalDeflected == 0 || stages[attr.StageInjectWait].Total == 0 {
			t.Fatalf("%s: %d delivered, %d deflected, %v inject wait: the load tests too little",
				pattern, st.Delivered, st.TotalDeflected, stages[attr.StageInjectWait].Total)
		}
		if !slices.Equal(seq, wseq) {
			t.Errorf("%s: one plane delivered %d packets, the engine %d, or in another order", pattern, len(wseq), len(seq))
		}
		if st != wst {
			t.Errorf("%s: stats diverge:\nengine:    %+v\none plane: %+v", pattern, st, wst)
		}
		if stages != wstages {
			t.Errorf("%s: stage durations diverge:\nengine:    %+v\none plane: %+v", pattern, stages, wstages)
		}
	}
}
