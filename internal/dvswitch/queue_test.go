package dvswitch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// freePages counts the pages on the core's queue-page free list.
func (c *Core) freePages() int {
	n := 0
	for pg := c.qfree; pg != nil; pg = pg.next {
		n++
	}
	return n
}

// burstCore returns a 32×8 core and a burst of 8 packets per cell (12,288
// on 1,536 cells), injected at once and stepped to idle. Every call of the
// burst injects the same packets.
func burstCore(tb testing.TB) (*Core, func()) {
	p := Params{Heights: 32, Angles: 8}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	cells := p.Cylinders() * p.Ports()
	pkts := make([]Packet, 8*cells)
	rng := sim.NewRNG(21)
	for i := range pkts {
		pkts[i] = Packet{Src: rng.Intn(p.Ports()), Dst: rng.Intn(p.Ports()), Payload: uint64(i)}
	}
	return c, func() {
		c.InjectBatch(pkts)
		c.RunUntilIdle(1 << 20)
		if c.Busy() {
			tb.Fatal("burst did not drain")
		}
	}
}

// TestQueuedPacketsHoldNoPoolSlot: the pool holds only in-flight packets, so
// a burst far deeper than the fabric leaves it within the cell count, and
// every queue page is back on the free list once the queues drain.
func TestQueuedPacketsHoldNoPoolSlot(t *testing.T) {
	c, burst := burstCore(t)
	burst()
	cells := len(c.grid)
	if cap(c.pool) > cells || cap(c.pstate) > cells || cap(c.free) > cells {
		t.Errorf("pool cap %d, pstate cap %d, free cap %d: want each <= %d cells",
			cap(c.pool), cap(c.pstate), cap(c.free), cells)
	}
	if got := c.freePages(); got != c.qpages || got == 0 {
		t.Errorf("%d of %d queue pages on the free list after draining", got, c.qpages)
	}
	for port, q := range c.inq {
		if q != (portq{}) {
			t.Fatalf("port %d queue not reset after draining: %+v", port, q)
		}
	}
}

// TestRepeatedBurstAllocatesNothing: a second identical burst finds every
// pool slot and queue page it needs on the free lists.
func TestRepeatedBurstAllocatesNothing(t *testing.T) {
	_, burst := burstCore(t)
	burst()
	if a := testing.AllocsPerRun(3, burst); a != 0 {
		t.Errorf("a repeated 12,288-packet burst allocates %v times, want 0", a)
	}
}

// TestPagedQueueSnapshotPinned pins the packets waiting in Core's injection
// queues when one spans several pages and has been partly popped: every
// port's queue, ascending, each packet as queuedPacket reads it back
// (source = port, zero hops and deflections).
func TestPagedQueueSnapshotPinned(t *testing.T) {
	const want = "38edcd51e9af4246e81c2e83b629a174ae07b0e7cdbb967f34006cda7d7664d6"
	c := NewCore(Params{Heights: 8, Angles: 4})
	c.Deliver = func(Packet, int64) {}
	for i := 0; i < 45; i++ {
		c.Inject(Packet{Src: 3, Dst: i * 7 % 32, Header: uint64(i)<<32 | 0xbeef, Payload: ^uint64(i),
			Flow: uint32(i % 5), Corrupt: i%4 == 0, Hops: 9, Deflections: 9})
		if i%3 == 0 {
			c.Inject(Packet{Src: i * 5 % 32, Dst: 3, Payload: uint64(i)})
		}
	}
	for i := 0; i < 6; i++ {
		c.Step()
	}
	for i := 0; i < 3; i++ {
		c.Inject(Packet{Src: 3, Dst: 30 - i, Header: 0xfeed, Payload: uint64(i)})
	}
	q := &c.inq[3]
	pages := 0
	for pg := q.head; pg != nil; pg = pg.next {
		pages++
	}
	if pages < 3 || q.hi == 0 {
		t.Fatalf("port 3 queue spans %d pages with head offset %d; want >= 3 pages, partly popped", pages, q.hi)
	}
	h := sha256.New()
	for port := range c.inq {
		q := &c.inq[port]
		fmt.Fprintln(h, "port", port, q.n)
		pg, i := q.head, q.hi
		for k := 0; k < q.n; k++ {
			if i == qpageLen {
				pg, i = pg.next, 0
			}
			fmt.Fprintf(h, "%+v\n", c.queuedPacket(port, pg, i))
			i++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("queued packets hash to sha256 %s, want %s", got, want)
	}
}

// TestQueueRecordIs24Bytes: a waiting packet costs 24 bytes, Corrupt folded
// into the destination's top bit and the flow on its page's side array, and
// the record gives back exactly what Inject was given at the highest port
// with Corrupt set — queued, and after it crosses the fabric. A page of an
// untraced run has no flow array.
func TestQueueRecordIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(qrec{}); got != 24 {
		t.Fatalf("qrec is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(qpage{}); got > 416 {
		t.Fatalf("qpage is %d bytes, want at most 416", got)
	}
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	var got []Packet
	c.Deliver = func(pkt Packet, _ int64) { got = append(got, pkt) }
	c.Inject(Packet{Src: 0, Dst: 1})
	if c.inq[0].head.flows != nil {
		t.Fatal("a page holding only flow 0 allocated its flow array")
	}
	top := p.Ports() - 1
	in := Packet{Src: top, Dst: top, Header: ^uint64(0), Payload: 0xdead, Flow: ^uint32(0), Corrupt: true}
	c.Inject(in)
	in.InjectCycle = c.Cycle()
	if q := &c.inq[top]; c.queuedPacket(top, q.head, q.hi) != in {
		t.Fatalf("queued record reads back as %+v, want %+v", c.queuedPacket(top, q.head, q.hi), in)
	}
	c.RunUntilIdle(1 << 12)
	if len(got) != 2 {
		t.Fatalf("delivered %+v, want two packets", got)
	}
	for _, pk := range got {
		if pk.Dst == top && (!pk.Corrupt || pk.Header != in.Header || pk.Flow != in.Flow) ||
			pk.Dst != top && (pk.Corrupt || pk.Flow != 0) {
			t.Fatalf("delivered %+v, want a clean packet at port 1 and a corrupt one at port %d", got, top)
		}
	}
}

// TestQueueRecordWaitsAcrossCycleWrap: a record keeps only the low 32 bits of
// its inject cycle, so one that waits while the clock crosses a multiple of
// 2^32 must still read back its full inject cycle, be charged the cycles it
// really waited, and cross the fabric with the right latency.
func TestQueueRecordWaitsAcrossCycleWrap(t *testing.T) {
	const wrap = int64(1) << 32
	p := Params{Heights: 8, Angles: 4}
	for _, start := range []int64{wrap - 3, 5*wrap - 1, 7 * wrap} {
		c := NewCore(p)
		c.cycle = start
		var got []Packet
		c.Deliver = func(pkt Packet, _ int64) { got = append(got, pkt) }
		// Port 2's entry node takes one packet a cycle; the rest wait.
		const n = 6
		for i := 0; i < n; i++ {
			c.Inject(Packet{Src: 2, Dst: 9, Payload: uint64(i), Flow: uint32(i)})
		}
		for i := 0; i < 3; i++ {
			c.Step()
		}
		q := &c.inq[2]
		if q.n == 0 {
			t.Fatalf("start %d: the queue drained in 3 cycles", start)
		}
		if pk := c.queuedPacket(2, q.head, q.hi); pk.InjectCycle != start || pk.Flow != uint32(n-q.n) {
			t.Fatalf("start %d: the head record reads back inject cycle %d flow %d, want %d and %d",
				start, pk.InjectCycle, pk.Flow, start, n-q.n)
		}
		c.RunUntilIdle(1 << 12)
		st := c.Stats()
		// Packet i waits i cycles: the entry node frees one a cycle.
		if want := int64(n * (n - 1) / 2); st.QueuedCycles != want {
			t.Errorf("start %d: QueuedCycles %d, want %d", start, st.QueuedCycles, want)
		}
		if len(got) != n {
			t.Fatalf("start %d: %d deliveries, want %d", start, len(got), n)
		}
		for i, pk := range got {
			if pk.InjectCycle != start || pk.Flow != uint32(i) {
				t.Errorf("start %d: delivery %d has inject cycle %d flow %d, want %d and %d",
					start, i, pk.InjectCycle, pk.Flow, start, i)
			}
		}
	}
}

// idleShiftRun drives a deep-queue burst on an 8×4 core after k idle Steps
// and returns its deliveries and drops with every cycle shifted back by k,
// plus the final Stats and the deepest queue seen. With faulty set, a dead
// node and a probabilistic fault window (itself shifted by k) are planted.
func idleShiftRun(k int64, faulty bool) (events []diffEvent, st Stats, deepest int) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	c.Deliver = func(pkt Packet, cycle int64) {
		pkt.InjectCycle -= k
		events = append(events, diffEvent{pkt: pkt, cycle: cycle - k})
	}
	c.DropHook = func(pkt Packet) {
		pkt.InjectCycle -= k
		events = append(events, diffEvent{pkt: pkt, drop: true, cycle: c.Cycle() - k})
	}
	if faulty {
		c.SetFaulty(2, 5, 1, true)
		c.SetFaultProbs(FaultProbs{Drop: 4e-3, Corrupt: 4e-3, StartCycle: k + 20, EndCycle: k + 250},
			sim.NewRNG(9))
	}
	for i := int64(0); i < k; i++ {
		c.Step()
	}
	rng := sim.NewRNG(4)
	for cy := 0; cy < 200; cy++ {
		for src := 0; src < p.Ports(); src++ {
			if rng.Float64() < 0.7 {
				c.Inject(Packet{Src: src, Dst: rng.Intn(p.Ports()), Header: uint64(cy<<8 | src), Payload: uint64(cy)})
			}
			deepest = max(deepest, c.QueueLen(src))
		}
		c.Step()
	}
	c.RunUntilIdle(1 << 20)
	return events, c.Stats(), deepest
}

// TestIdleCyclesShiftDeliveries is the idle-cycle metamorphic property: k
// idle Steps before a burst shift every delivery (and drop) by exactly k
// cycles, in the same order, with equal Stats — on the clean path and under
// a planted fault window.
func TestIdleCyclesShiftDeliveries(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		base, baseSt, deepest := idleShiftRun(0, faulty)
		if deepest <= 2*qpageLen {
			t.Fatalf("faulty=%v: deepest queue %d does not span three pages", faulty, deepest)
		}
		if faulty && (baseSt.Dropped == 0 || baseSt.Corrupted == 0) {
			t.Fatalf("fault window dropped %d and corrupted %d packets; property vacuous", baseSt.Dropped, baseSt.Corrupted)
		}
		for _, k := range []int64{1, 37} {
			t.Run(fmt.Sprintf("faulty=%v/k=%d", faulty, k), func(t *testing.T) {
				got, st, _ := idleShiftRun(k, faulty)
				if st != baseSt {
					t.Errorf("stats differ after %d idle cycles:\nbase:    %+v\nshifted: %+v", k, baseSt, st)
				}
				if len(got) != len(base) {
					t.Fatalf("%d events after %d idle cycles, want %d", len(got), k, len(base))
				}
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("event %d differs after %d idle cycles:\nbase:    %+v\nshifted: %+v", i, k, base[i], got[i])
					}
				}
			})
		}
	}
}
