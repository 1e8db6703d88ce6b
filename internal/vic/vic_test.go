package vic

import (
	"testing"
	"testing/quick"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

func TestHeaderRoundTrip(t *testing.T) {
	check := func(dst uint16, opRaw uint8, gcRaw uint8, addr uint32) bool {
		op := Op(opRaw % 5)
		gc := NoGC
		if gcRaw%2 == 0 {
			gc = int(gcRaw % 64)
		}
		addr &= hdrAddrMask
		h := EncodeHeader(int(dst), op, gc, addr)
		d2, o2, g2, a2 := DecodeHeader(h)
		return d2 == int(dst) && o2 == op && g2 == gc && a2 == addr
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderAddrOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeHeader(0, OpWrite, NoGC, 1<<24)
}

// testbed wires n VICs to a cycle-accurate switch engine.
type testbed struct {
	k    *sim.Kernel
	vics []*VIC
}

func newTestbed(n int) *testbed {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(n), dvswitch.DefaultCycleTime)
	tb := &testbed{k: k, vics: make([]*VIC, n)}
	for i := 0; i < n; i++ {
		tb.vics[i] = New(k, i, i, DefaultParams(), eng.Inject)
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { tb.vics[pkt.Dst].Receive(pkt) })
	return tb
}

func TestWriteRemoteMemory(t *testing.T) {
	tb := newTestbed(4)
	tb.k.Spawn("sender", func(p *sim.Proc) {
		tb.vics[0].HostSend(p, PIO, []Word{
			{Dst: 2, Op: OpWrite, GC: NoGC, Addr: 100, Val: 0xabcd},
			{Dst: 2, Op: OpWrite, GC: NoGC, Addr: 101, Val: 0xef01},
		})
	})
	tb.k.Run()
	if tb.vics[2].Peek(100) != 0xabcd || tb.vics[2].Peek(101) != 0xef01 {
		t.Fatalf("remote memory: %x %x", tb.vics[2].Peek(100), tb.vics[2].Peek(101))
	}
}

func TestGroupCounterCompletion(t *testing.T) {
	tb := newTestbed(4)
	const n = 64
	var ok bool
	var recvAt sim.Time
	tb.k.Spawn("recv", func(p *sim.Proc) {
		tb.vics[1].LocalSetGC(p, 5, n)
		ok = tb.vics[1].WaitGCZero(p, 5, sim.Forever)
		recvAt = p.Now()
	})
	tb.k.Spawn("send", func(p *sim.Proc) {
		p.Wait(sim.Microsecond) // let the receiver arm the counter
		words := make([]Word, n)
		for i := range words {
			words[i] = Word{Dst: 1, Op: OpWrite, GC: 5, Addr: uint32(i), Val: uint64(i * 3)}
		}
		tb.vics[0].HostSend(p, DMACached, words)
	})
	tb.k.Run()
	if !ok {
		t.Fatal("WaitGCZero never observed zero")
	}
	if recvAt == 0 {
		t.Fatal("receiver did not advance time")
	}
	for i := 0; i < n; i++ {
		if tb.vics[1].Peek(uint32(i)) != uint64(i*3) {
			t.Fatalf("Mem[%d] = %d", i, tb.vics[1].Peek(uint32(i)))
		}
	}
}

func TestWaitGCZeroTimeout(t *testing.T) {
	tb := newTestbed(2)
	var ok bool
	tb.k.Spawn("recv", func(p *sim.Proc) {
		tb.vics[0].LocalSetGC(p, 7, 10) // nothing will ever decrement it
		ok = tb.vics[0].WaitGCZero(p, 7, 5*sim.Microsecond)
	})
	tb.k.Run()
	if ok {
		t.Fatal("expected timeout")
	}
}

func TestSurpriseFIFO(t *testing.T) {
	tb := newTestbed(4)
	var got []uint64
	tb.k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			w, ok := tb.vics[3].PopSurprise(p, sim.Forever)
			if !ok {
				t.Error("PopSurprise failed")
				return
			}
			got = append(got, w)
		}
	})
	tb.k.Spawn("send", func(p *sim.Proc) {
		words := make([]Word, 10)
		for i := range words {
			words[i] = Word{Dst: 3, Op: OpFIFO, GC: NoGC, Val: uint64(100 + i)}
		}
		tb.vics[1].HostSend(p, PIOCached, words)
	})
	tb.k.Run()
	if len(got) != 10 {
		t.Fatalf("received %d surprise words", len(got))
	}
	// Order across the network is not guaranteed; check the multiset.
	seen := map[uint64]bool{}
	for _, w := range got {
		seen[w] = true
	}
	for i := 0; i < 10; i++ {
		if !seen[uint64(100+i)] {
			t.Fatalf("missing word %d; got %v", 100+i, got)
		}
	}
}

func TestRemoteSetGC(t *testing.T) {
	tb := newTestbed(2)
	done := false
	tb.k.Spawn("a", func(p *sim.Proc) {
		// Node 0 sets node 1's counter remotely, then decrements it to zero.
		tb.vics[0].HostSend(p, PIO, []Word{{Dst: 1, Op: OpSetGC, Addr: 9, Val: 2}})
		p.Wait(2 * sim.Microsecond)
		tb.vics[0].HostSend(p, PIO, []Word{
			{Dst: 1, Op: OpDecGC, Addr: 9, Val: 1},
			{Dst: 1, Op: OpDecGC, Addr: 9, Val: 1},
		})
	})
	tb.k.Spawn("b", func(p *sim.Proc) {
		done = tb.vics[1].WaitGCZero(p, 9, sim.Forever)
	})
	tb.k.Run()
	if !done {
		t.Fatal("counter never reached zero")
	}
}

func TestQueryPacket(t *testing.T) {
	tb := newTestbed(4)
	tb.vics[2].mem.write(500, 0xfeedface)
	var got uint64
	tb.k.Spawn("q", func(p *sim.Proc) {
		// Ask VIC 2 to send Mem[500] back to our Mem[7], counted by GC 3.
		tb.vics[0].LocalSetGC(p, 3, 1)
		ret := EncodeHeader(0, OpWrite, 3, 7)
		tb.vics[0].HostSend(p, PIO, []Word{{Dst: 2, Op: OpQuery, GC: NoGC, Addr: 500, Val: ret}})
		if !tb.vics[0].WaitGCZero(p, 3, sim.Forever) {
			t.Error("query reply never arrived")
			return
		}
		got = tb.vics[0].Peek(7)
	})
	tb.k.Run()
	if got != 0xfeedface {
		t.Fatalf("query returned %x", got)
	}
}

func TestQueryReplyToThirdParty(t *testing.T) {
	tb := newTestbed(4)
	tb.vics[1].mem.write(40, 777)
	tb.k.Spawn("q", func(p *sim.Proc) {
		// VIC 0 asks VIC 1 to deliver Mem[40] to VIC 3's Mem[8].
		ret := EncodeHeader(3, OpWrite, NoGC, 8)
		tb.vics[0].HostSend(p, PIO, []Word{{Dst: 1, Op: OpQuery, Addr: 40, Val: ret, GC: NoGC}})
	})
	tb.k.Run()
	if tb.vics[3].Peek(8) != 777 {
		t.Fatalf("third-party reply: Mem[8] = %d", tb.vics[3].Peek(8))
	}
}

func TestBarrierSynchronises(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16, 32} {
		tb := newTestbed(n)
		for _, v := range tb.vics {
			v.BarrierInit(n)
		}
		exitTimes := make([]sim.Time, n)
		entryTimes := make([]sim.Time, n)
		for i := 0; i < n; i++ {
			i := i
			tb.k.Spawn("node", func(p *sim.Proc) {
				// Stagger arrivals.
				p.Wait(sim.Time(i) * 100 * sim.Nanosecond)
				entryTimes[i] = p.Now()
				tb.vics[i].Barrier(p)
				exitTimes[i] = p.Now()
			})
		}
		tb.k.Run()
		var lastEntry sim.Time
		for _, e := range entryTimes {
			if e > lastEntry {
				lastEntry = e
			}
		}
		for i, x := range exitTimes {
			if x < lastEntry {
				t.Fatalf("n=%d: node %d exited at %v before last entry %v", n, i, x, lastEntry)
			}
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	const n = 8
	const iters = 10
	tb := newTestbed(n)
	for _, v := range tb.vics {
		v.BarrierInit(n)
	}
	// Track a shared phase counter; within each barrier epoch all nodes must
	// observe the same phase.
	phase := make([]int, n)
	violated := false
	for i := 0; i < n; i++ {
		i := i
		tb.k.Spawn("node", func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(i + 1))
			for it := 0; it < iters; it++ {
				p.Wait(sim.Time(rng.Intn(2000)) * sim.Nanosecond)
				phase[i]++
				tb.vics[i].Barrier(p)
				for j := 0; j < n; j++ {
					if phase[j] != it+1 {
						violated = true
					}
				}
				tb.vics[i].Barrier(p)
			}
		})
	}
	tb.k.Run()
	if violated {
		t.Fatal("barrier did not synchronise phases")
	}
}

func TestBarrierLatencyFlat(t *testing.T) {
	// The intrinsic barrier's defining property (paper Fig. 4): latency
	// barely grows with node count.
	lat := func(n int) sim.Time {
		tb := newTestbed(n)
		for _, v := range tb.vics {
			v.BarrierInit(n)
		}
		var worst sim.Time
		start := 10 * sim.Microsecond
		for i := 0; i < n; i++ {
			i := i
			tb.k.Spawn("node", func(p *sim.Proc) {
				p.WaitUntil(start)
				tb.vics[i].Barrier(p)
				if d := p.Now() - start; d > worst {
					worst = d
				}
			})
		}
		tb.k.Run()
		return worst
	}
	l2, l32 := lat(2), lat(32)
	if l32 > 8*l2 {
		t.Fatalf("barrier not flat: 2 nodes %v, 32 nodes %v", l2, l32)
	}
	if l32 > 5*sim.Microsecond {
		t.Fatalf("32-node barrier too slow: %v", l32)
	}
}

func TestDMAReadMovesData(t *testing.T) {
	tb := newTestbed(2)
	for i := 0; i < 100; i++ {
		tb.vics[0].mem.write(uint32(i), uint64(i*i))
	}
	got := make([]uint64, 100)
	var elapsed sim.Time
	tb.k.Spawn("r", func(p *sim.Proc) {
		t0 := p.Now()
		tb.vics[0].DMAReadInto(p, got, 0)
		elapsed = p.Now() - t0
	})
	tb.k.Run()
	for i := range got {
		if got[i] != uint64(i*i) {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
	if elapsed <= 0 {
		t.Fatal("DMAReadInto should take time")
	}
}

func TestHostWriteMemAndCachedHeaders(t *testing.T) {
	tb := newTestbed(2)
	tb.k.Spawn("w", func(p *sim.Proc) {
		tb.vics[0].HostWriteMemDMA(p, 2000, []uint64{1, 2, 3})
	})
	tb.k.Run()
	if tb.vics[0].Peek(2001) != 2 {
		t.Fatal("HostWriteMemDMA did not store")
	}
}

func TestPIOSlowerThanDMA(t *testing.T) {
	// The paper's core bandwidth observation: direct writes are limited by
	// the PCIe lane; DMA approaches network peak.
	elapsedFor := func(mode SendMode) sim.Time {
		tb := newTestbed(2)
		var e sim.Time
		tb.k.Spawn("s", func(p *sim.Proc) {
			words := make([]Word, 4096)
			for i := range words {
				words[i] = Word{Dst: 1, Op: OpWrite, Addr: uint32(i), GC: NoGC, Val: 1}
			}
			t0 := p.Now()
			tb.vics[0].HostSend(p, mode, words)
			e = p.Now() - t0
		})
		tb.k.Run()
		return e
	}
	pio, pioC, dma := elapsedFor(PIO), elapsedFor(PIOCached), elapsedFor(DMACached)
	if !(dma < pioC && pioC < pio) {
		t.Fatalf("expected DMA < PIOCached < PIO, got %v %v %v", dma, pioC, pio)
	}
	if float64(pio) < 1.9*float64(pioC) {
		t.Fatalf("cached headers should ~halve PCIe traffic: %v vs %v", pio, pioC)
	}
}

func TestStatsCounters(t *testing.T) {
	tb := newTestbed(2)
	tb.k.Spawn("s", func(p *sim.Proc) {
		tb.vics[0].HostSend(p, PIO, []Word{{Dst: 1, Op: OpFIFO, GC: NoGC, Val: 1}})
	})
	tb.k.Run()
	if tb.vics[0].Stats().PktsSent != 1 {
		t.Fatalf("sender stats: %+v", tb.vics[0].Stats())
	}
	if tb.vics[1].Stats().PktsReceived != 1 || tb.vics[1].Stats().FIFOPkts != 1 {
		t.Fatalf("receiver stats: %+v", tb.vics[1].Stats())
	}
}

func TestMemOutOfRangePanics(t *testing.T) {
	tb := newTestbed(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := DefaultParams()
	v := New(tb.k, 0, 0, p, func(dvswitch.Packet) {})
	v.Peek(uint32(p.MemWords))
}

// TestDMAProgramSpansTable: a program larger than the 8192-entry DMA table
// must pay one staging setup per table fill.
func TestDMAProgramSpansTable(t *testing.T) {
	tb := newTestbed(2)
	par := DefaultParams()
	var small, large sim.Time
	tb.k.Spawn("s", func(p *sim.Proc) {
		mk := func(n int) *DMAProgram {
			words := make([]Word, n)
			for i := range words {
				words[i] = Word{Dst: 1, Op: OpFIFO, GC: NoGC}
			}
			return tb.vics[0].NewDMAProgram(words)
		}
		// First triggers pay staging proportional to table fills.
		t0 := p.Now()
		mk(100).Trigger(p)
		small = p.Now() - t0
		t0 = p.Now()
		mk(2*par.DMATableEntries + 1).Trigger(p)
		large = p.Now() - t0
	})
	tb.k.Run()
	if large < small+2*par.DMASetup {
		t.Fatalf("spanning program staged too cheaply: %v vs %v", large, small)
	}
}

// TestSendModeStrings pins the labels used in figures.
func TestSendModeStrings(t *testing.T) {
	if PIO.String() != "DWr/NoCached" || PIOCached.String() != "DWr/Cached" ||
		DMACached.String() != "DMA/Cached" {
		t.Fatal("mode labels drifted from the paper's figure legends")
	}
}

// TestSurpriseFIFOOverflowDrops: a tiny FIFO with no drain budget must shed
// packets and count the loss (the developer's polling responsibility).
func TestSurpriseFIFOOverflowDrops(t *testing.T) {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(2), dvswitch.DefaultCycleTime)
	par := DefaultParams()
	par.FIFOCapacity = 8
	par.FIFODrainDelay = sim.Millisecond // effectively never drains here
	vics := []*VIC{New(k, 0, 0, par, eng.Inject), New(k, 1, 1, par, eng.Inject)}
	eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })
	k.Spawn("s", func(p *sim.Proc) {
		words := make([]Word, 64)
		for i := range words {
			words[i] = Word{Dst: 1, Op: OpFIFO, GC: NoGC, Val: uint64(i)}
		}
		vics[0].HostSend(p, DMACached, words)
		p.Wait(100 * sim.Microsecond)
	})
	k.RunUntil(200 * sim.Microsecond)
	st := vics[1].Stats()
	if st.FIFODropped != 64-8 {
		t.Fatalf("dropped %d, want %d", st.FIFODropped, 64-8)
	}
	if st.FIFOPkts != 8 {
		t.Fatalf("buffered %d, want 8", st.FIFOPkts)
	}
}
