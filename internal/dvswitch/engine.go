package dvswitch

import (
	"fmt"

	"repro/internal/faultplan"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Fabric is the interface shared by the cycle-accurate engine and the fast
// analytic model. Injection happens at the caller's current virtual time;
// delivery is announced through the callback installed with OnDeliver.
type Fabric interface {
	// Ports returns the number of network ports.
	Ports() int
	// Inject submits a packet at the current virtual time.
	Inject(pkt Packet)
	// InjectBatch submits a whole boundary batch at the current virtual
	// time, in slice order — semantically identical to calling Inject per
	// element, but letting the fabric amortize per-call work (the engine
	// arms its pump once per batch instead of once per packet).
	InjectBatch(pkts []Packet)
	// OnDeliver installs the delivery callback (invoked in virtual time).
	OnDeliver(fn func(pkt Packet))
	// FabricStats returns aggregate telemetry.
	FabricStats() Stats
	// CycleTime returns the duration of one switch cycle.
	CycleTime() sim.Time
}

// DefaultCycleTime is the switch cycle period used throughout the
// reproduction. It is calibrated so that one port sustains the paper's
// 4.4 GB/s peak payload bandwidth: 8 payload bytes per cycle / 4.4 GB/s
// ≈ 1.818 ns per cycle.
const DefaultCycleTime = 1818 * sim.Picosecond

// Engine couples the cycle-accurate Core to a discrete-event kernel. The
// switch is stepped lazily: a pump event runs once per cycle only while
// packets are in flight, so an idle fabric costs nothing.
type Engine struct {
	k     *sim.Kernel
	core  *Core
	ct    sim.Time
	fn    func(pkt Packet)
	armed bool

	// attr is the attribution tracer (SetAttr); nil when flow tracing is
	// disabled, costing one pointer test per delivery.
	attr *attr.Tracer
}

// NewEngine builds a kernel-coupled cycle-accurate switch that steps one
// switch cycle per cycleTime of virtual time.
func NewEngine(k *sim.Kernel, p Params, cycleTime sim.Time) *Engine {
	e := &Engine{k: k, core: NewCore(p), ct: cycleTime}
	e.core.Deliver = func(pkt Packet, _ int64) {
		if e.attr != nil && pkt.Flow != 0 {
			// The engine delivers one pump after the last hop; each hop is
			// one cycle and the packet spends one cycle entering, so it
			// entered the fabric (Hops+1) cycles before its delivery.
			now := e.k.Now()
			e.attr.StampFabric(pkt.Flow, now-sim.Time(pkt.Hops+1)*e.ct, now, pkt.Hops, pkt.Deflections)
		}
		if e.fn != nil {
			e.fn(pkt)
		}
	}
	return e
}

// Ports implements Fabric.
func (e *Engine) Ports() int { return e.core.p.Ports() }

// CycleTime implements Fabric.
func (e *Engine) CycleTime() sim.Time { return e.ct }

// FabricStats implements Fabric.
func (e *Engine) FabricStats() Stats { return e.core.Stats() }

// OnDeliver implements Fabric.
func (e *Engine) OnDeliver(fn func(pkt Packet)) { e.fn = fn }

// Inject implements Fabric. The packet is queued at its source port and the
// pump is armed at the next cycle boundary.
func (e *Engine) Inject(pkt Packet) {
	e.wake()
	e.core.Inject(pkt)
	e.arm()
}

// InjectBatch implements Fabric: every packet is queued at its source port,
// then the pump is armed once.
func (e *Engine) InjectBatch(pkts []Packet) {
	e.wake()
	e.core.InjectBatch(pkts)
	e.arm()
}

// wake brings an unarmed engine's idle core up to the current cycle before
// it takes traffic, so the core's clock — what fault windows and injection
// cycles are read against — keeps reading virtual time across idle gaps.
func (e *Engine) wake() {
	if !e.armed {
		e.core.setIdleClock(int64(e.k.Now() / e.ct))
	}
}

func (e *Engine) arm() {
	if e.armed {
		return
	}
	e.armed = true
	now := e.k.Now()
	next := (now/e.ct + 1) * e.ct // next cycle boundary, deterministic grid
	e.k.At(next, e.pump)
}

func (e *Engine) pump() {
	e.core.Step()
	if e.core.Busy() {
		e.k.After(e.ct, e.pump)
	} else {
		e.armed = false
	}
}

// FastModel is the analytic stand-in for Core, used for long application
// runs. It preserves the properties the paper's results rest on:
//
//   - injection is serialised at one packet per cycle per port (the VIC link);
//   - ejection is serialised at one packet per cycle per port;
//   - flight latency is pipeline descent + height-bit corrections + angle
//     circling, plus a contention term that grows with output-port backlog
//     (deflections cost two hops each, per the paper);
//   - there is no fabric-wide congestion: the Data Vortex is congestion-free
//     by construction, so only endpoint ports saturate.
//
// Its unloaded latency matches Core exactly (asserted by tests).
//
// A packet's whole fabric life is decided when it is injected (admit). Its
// delivery then waits on the FIFO train of its output port, and only the
// head of each train is an event in the kernel, so what the host pays per
// packet does not grow with the number of packets in flight; deliveryEvent
// has the argument for why every delivery still happens at exactly the time
// and in exactly the order it would as a kernel event of its own.
type FastModel struct {
	k   *sim.Kernel
	p   Params
	ct  sim.Time
	in  []sim.Pipe
	out []sim.Pipe
	rng *sim.RNG
	fn  func(pkt Packet)
	st  Stats

	// attr is the attribution tracer (SetAttr); nil when flow tracing is
	// disabled, costing one pointer test in Inject.
	attr *attr.Tracer

	// fpl/frng configure probabilistic per-packet faults (ApplyPlan):
	// the plan plus one independent RNG stream per source port.
	fpl  *faultplan.Plan
	frng []*sim.RNG

	// DropHook, when set, observes every packet lost to an injected fault,
	// mirroring Core.DropHook so the invariant layer (internal/check) can
	// account fabric losses on either engine.
	DropHook func(pkt Packet)

	// trains holds the pending deliveries, one FIFO per output port, and
	// only each train's head is a kernel event (see deliveryEvent). evFree
	// pools the entries so Inject allocates nothing in steady state. lastEv
	// is the most recently appended, still-pending entry and lastTail the
	// last member of its batch, so a delivery burst landing on one ejection
	// deadline rides a single entry.
	trains   []train
	evFree   []*deliveryEvent
	lastEv   *deliveryEvent
	lastTail *deliveryEvent

	// ftab memoises UnloadedFlightCycles per (src, dst): the function is
	// pure in the port pair, and profiling showed its bit-walk dominating
	// Inject. 0 means unset (a flight is never 0 cycles). nil when the
	// geometry is too large to tabulate (see NewFastModel).
	ftab   []int16
	nports int
}

// deliveryEvent is one pending delivery, and through more the head of a
// batch: every packet whose ejection completes at the same virtual time, in
// injection order — which is exactly the order per-packet events with
// ascending sequence numbers would fire, so batching is invisible in results.
// Batches are rare (under 5 % of deliveries on every app, 0.03 % on the FFT),
// which is why a member is a whole pooled entry rather than a slot in a
// per-entry slice: the common delivery reads one object and nothing else.
//
// Entries wait in per-port trains, linked through next, and only a train's
// head is queued in the kernel: a bulk transfer keeps one event pending per
// output port instead of one per packet in flight, so the kernel's queue
// stays as shallow as the fabric is wide. Each entry still fires at the
// (done, seq) it would have had as a kernel event of its own, because
//
//   - seq is reserved (Kernel.ReserveSeq) at injection, where AtArg would
//     have drawn it, so both keys are fixed before the entry waits;
//   - a train is a FIFO in both keys: done comes from the port's ejection
//     pipe (ReserveAt, strictly increasing per port) and seq rises in
//     injection order, so an entry's predecessor fires strictly earlier and
//     arms it (Kernel.AtArgSeq) while its time is still in the future;
//   - the kernel orders events by (at, seq) alone, never by when they were
//     queued.
//
// A batch whose members go to different ports is still one entry, on the
// train of its first packet's port: it needs no place on the other ports'
// trains, because it fires by its own key and delivers every member then.
type deliveryEvent struct {
	m    *FastModel
	done sim.Time       // when the batch is delivered (batch head only)
	seq  uint64         // its reserved kernel sequence number (batch head only)
	next *deliveryEvent // the entry behind this one on its train (batch head only)
	more *deliveryEvent // the next member of this batch
	pkt  Packet
	now  sim.Time // when pkt was injected (latency accounting)
}

// train is one output port's FIFO of pending deliveries; head is the entry
// queued in the kernel. Non-empty implies head armed — fireDelivery restores
// that before it runs any callback, since callbacks inject.
type train struct{ head, tail *deliveryEvent }

// fireDelivery completes the delivery batch at the head of a train: it
// unlinks the entry, arms its successor, then delivers and recycles each
// member. It is a package-level function (not a closure) so scheduling it
// carries only the pooled payload pointer.
func fireDelivery(a any) {
	ev := a.(*deliveryEvent)
	m := ev.m
	if m.lastEv == ev {
		m.lastEv = nil
	}
	tr := &m.trains[ev.pkt.Dst]
	next := ev.next
	tr.head, ev.next = next, nil
	if next == nil {
		tr.tail = nil
	} else {
		m.k.AtArgSeq(next.done, next.seq, fireDelivery, next)
	}
	// The callback may inject, and Inject may reuse a member the moment it is
	// back in the pool, so everything needed later is read first.
	done := ev.done
	for d := ev; d != nil; {
		more := d.more
		m.deliver(&d.pkt, done-d.now)
		d.more = nil
		m.evFree = append(m.evFree, d)
		d = more
	}
}

// deliver accounts one packet's arrival, flight being the time since its
// injection, and hands it to the delivery callback.
func (m *FastModel) deliver(pkt *Packet, flight sim.Time) {
	m.st.Delivered++
	m.st.recordLatency(int64(flight / m.ct))
	if m.fn != nil {
		m.fn(*pkt)
	}
}

// NewFastModel builds the analytic fabric model.
func NewFastModel(k *sim.Kernel, p Params, cycleTime sim.Time, rng *sim.RNG) *FastModel {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := &FastModel{
		k:      k,
		p:      p,
		ct:     cycleTime,
		in:     make([]sim.Pipe, p.Ports()),
		out:    make([]sim.Pipe, p.Ports()),
		trains: make([]train, p.Ports()),
		rng:    rng,
		nports: p.Ports(),
	}
	// Tabulate flight times unless the table would be large (quadratic in
	// ports) or a flight could overflow the int16 slot; big sweeps fall back
	// to computing per packet.
	if n := p.Ports(); n <= 2048 && 2*p.Cylinders()+p.Angles < 1<<15 {
		m.ftab = make([]int16, n*n)
	}
	return m
}

// flightCycles is UnloadedFlightCycles with per-(src, dst) memoisation.
func (m *FastModel) flightCycles(src, dst int) int64 {
	if m.ftab == nil {
		return UnloadedFlightCycles(m.p, src, dst)
	}
	i := src*m.nports + dst
	if v := m.ftab[i]; v != 0 {
		return int64(v)
	}
	v := UnloadedFlightCycles(m.p, src, dst)
	m.ftab[i] = int16(v)
	return v
}

// Ports implements Fabric.
func (m *FastModel) Ports() int { return m.p.Ports() }

// CycleTime implements Fabric.
func (m *FastModel) CycleTime() sim.Time { return m.ct }

// FabricStats implements Fabric.
func (m *FastModel) FabricStats() Stats { return m.st }

// OnDeliver implements Fabric.
func (m *FastModel) OnDeliver(fn func(pkt Packet)) { m.fn = fn }

// UnloadedFlightCycles returns the exact number of cycles an uncontended
// packet spends between entering the outermost cylinder and ejecting.
// Derivation (verified cycle-by-cycle against Core in tests): the packet
// performs one hop per level, plus one extra hop per destination-height bit
// it must correct, then circles the output ring to the destination angle and
// spends one final cycle ejecting.
func UnloadedFlightCycles(p Params, src, dst int) int64 {
	L := p.Cylinders() - 1
	sh, sa := p.PortCoord(src)
	dh, da := p.PortCoord(dst)
	hops := int64(0)
	h := sh
	for c := 0; c < L; c++ {
		bit := uint(L - 1 - c)
		if (h>>bit)&1 != (dh>>bit)&1 {
			h ^= 1 << bit
			hops++ // deflection hop to correct the bit
		}
		hops++ // descent hop
	}
	// Angle after the descent phase.
	a := (sa + int(hops)) % p.Angles
	circle := ((da-a)%p.Angles + p.Angles) % p.Angles
	return hops + int64(circle) + 1 // +1: ejection cycle
}

// admit is the model proper: it takes the packet onto its source link at time
// now, draws its deflections and its fate under the fault plan, reserves its
// ejection slot, and returns when its delivery completes. The packet's
// telemetry fields are filled in place. A false return means the packet was
// lost to an injected fault and there is nothing to deliver.
func (m *FastModel) admit(pkt *Packet, now sim.Time) (done sim.Time, ok bool) {
	if pkt.Src < 0 || pkt.Src >= m.p.Ports() || pkt.Dst < 0 || pkt.Dst >= m.p.Ports() {
		panic(fmt.Sprintf("dvswitch: port out of range: src=%d dst=%d ports=%d", pkt.Src, pkt.Dst, m.p.Ports()))
	}
	m.st.Injected++
	// Injection link: one packet per cycle per source port.
	entered := m.in[pkt.Src].Reserve(m.k, m.ct)
	// Contention: output backlog raises deflection probability. Each
	// deflection costs two hops (one to leave the path, one to return).
	// The clamp happens in integer time before the float conversion, and an
	// idle output port skips the float math entirely; both give bit-identical
	// pDefl (0.15*0/(0+8) is exactly 0).
	pDefl := 0.05
	if bl := m.out[pkt.Dst].BusyUntil() - now; bl > 0 {
		backlog := float64(bl) / float64(m.ct)
		pDefl = 0.05 + 0.15*backlog/(backlog+8)
	}
	defl := 0
	for m.rng.Float64() < pDefl && defl < 8 {
		defl++
	}
	flight := m.flightCycles(pkt.Src, pkt.Dst) + int64(2*defl)
	if m.fpl != nil && m.fpl.Window.Contains(now) {
		r := m.frng[pkt.Src]
		if m.fpl.DropProb > 0 && r.Float64() < compound(m.fpl.DropProb, flight) {
			m.st.Dropped++
			if m.attr != nil {
				m.attr.Drop(pkt.Flow)
			}
			if m.DropHook != nil {
				m.DropHook(*pkt)
			}
			return 0, false
		}
		if m.fpl.CorruptProb > 0 && r.Float64() < compound(m.fpl.CorruptProb, flight) {
			pkt.Payload ^= 1 << (r.Uint64() & 63)
			pkt.Corrupt = true
			m.st.Corrupted++
		}
	}
	arrive := entered + sim.Time(flight)*m.ct
	// Ejection port: one packet per cycle.
	done = m.out[pkt.Dst].ReserveAt(arrive-m.ct, m.ct)
	pkt.Hops = int(flight)
	pkt.Deflections = defl
	m.st.TotalHops += flight
	m.st.TotalDeflected += int64(defl)
	// Attribution: the packet's whole fabric life is determined here —
	// entered closes the injection wait, done closes the fabric stage.
	if m.attr != nil && pkt.Flow != 0 {
		m.attr.StampFabric(pkt.Flow, entered, done, int(flight), defl)
	}
	return done, true
}

// Inject implements Fabric: the model decides when the packet is delivered
// (admit), and the delivery joins its output port's train.
func (m *FastModel) Inject(pkt Packet) {
	now := m.k.Now()
	done, ok := m.admit(&pkt, now)
	if !ok {
		return
	}
	var ev *deliveryEvent
	if n := len(m.evFree); n > 0 {
		ev = m.evFree[n-1]
		m.evFree = m.evFree[:n-1]
	} else {
		ev = &deliveryEvent{m: m}
	}
	ev.pkt, ev.now = pkt, now
	// Join the pending batch when this packet's ejection lands on the same
	// deadline as the last one appended; otherwise start a new entry on the
	// destination port's train. Deadlines are in the future, so a pending
	// batch can always still accept members.
	if le := m.lastEv; le != nil && le.done == done {
		m.lastTail.more = ev
		m.lastTail = ev
		return
	}
	ev.done, ev.seq = done, m.k.ReserveSeq()
	m.lastEv, m.lastTail = ev, ev
	tr := &m.trains[pkt.Dst]
	if tr.tail == nil {
		tr.head, tr.tail = ev, ev
		m.k.AtArgSeq(done, ev.seq, fireDelivery, ev)
		return
	}
	tr.tail.next = ev
	tr.tail = ev
}

// InjectBatch implements Fabric. The fast model's per-packet work (pipe
// reservations, the shared contention RNG draw) is order-sensitive, so the
// batch is processed strictly in slice order — exactly what per-packet calls
// would do.
func (m *FastModel) InjectBatch(pkts []Packet) {
	for i := range pkts {
		m.Inject(pkts[i])
	}
}
