package dvswitch

import (
	"fmt"
	"math"

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
// delivery then waits as a record on the train of its output port
// (sim.Train, which has the argument for why every delivery still happens at
// exactly the time and in exactly the order it would as a kernel event of its
// own), and only the head of each train is an event in the kernel, so what
// the host pays per packet does not grow with the number of packets in
// flight.
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

	// trains holds the pending deliveries, one train per output port, on
	// pages from the one yard. A delivery burst landing on one ejection
	// deadline is one run: its later packets join the tail of the train the
	// last delivery went to (last), under that record's key, whatever their
	// own port (see Inject).
	yard   sim.Yard[deliveryRec]
	trains []sim.Train[deliveryRec]
	last   int

	// ftab memoises UnloadedFlightCycles per (src, dst): the function is
	// pure in the port pair, and profiling showed its bit-walk dominating
	// Inject. 0 means unset (a flight is never 0 cycles). nil when the
	// geometry is too large to tabulate (see NewFastModel).
	ftab   []int16
	nports int
}

// deliveryRec is one packet waiting on a train: what rebuilds the Packet
// Inject was given, field for field, with the telemetry admit filled in, plus
// its latency in cycles, fixed at injection. 48 bytes and no pointer; with
// its kernel key, 64 on a train page.
type deliveryRec struct {
	header, payload uint64
	injectCycle     int64
	src, dst        int32
	hops            int32
	flow            uint32
	lat             uint32 // cycles from injection to delivery
	defl            uint8
	corrupt         bool
}

// packet rebuilds the delivered Packet.
func (d *deliveryRec) packet() Packet {
	return Packet{Src: int(d.src), Dst: int(d.dst), Header: d.header, Payload: d.payload,
		InjectCycle: d.injectCycle, Hops: int(d.hops), Deflections: int(d.defl),
		Corrupt: d.corrupt, Flow: d.flow}
}

// record returns the train record of an admitted packet that is delivered
// flight after its injection.
func (m *FastModel) record(pkt *Packet, flight sim.Time) deliveryRec {
	lat := int64(flight / m.ct)
	if lat > math.MaxUint32 {
		panic(fmt.Sprintf("dvswitch: a delivery %d cycles after its injection", lat))
	}
	return deliveryRec{header: pkt.Header, payload: pkt.Payload, injectCycle: pkt.InjectCycle,
		src: int32(pkt.Src), dst: int32(pkt.Dst), hops: int32(pkt.Hops), flow: pkt.Flow,
		lat: uint32(lat), defl: uint8(pkt.Deflections), corrupt: pkt.Corrupt}
}

// deliverRun delivers a run that fell due, in injection order.
func (m *FastModel) deliverRun(run []deliveryRec) {
	for i := range run {
		m.deliver(&run[i])
	}
}

// deliver accounts one packet's arrival and hands it to the delivery
// callback.
func (m *FastModel) deliver(d *deliveryRec) {
	m.st.Delivered++
	m.st.recordLatency(int64(d.lat))
	if m.fn != nil {
		m.fn(d.packet())
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
		trains: make([]sim.Train[deliveryRec], p.Ports()),
		rng:    rng,
		nports: p.Ports(),
	}
	m.yard.Init(k, m.deliverRun)
	for i := range m.trains {
		m.trains[i].Init(&m.yard)
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
	d := m.record(&pkt, done-now)
	// Join the run of the last delivery appended when this packet ejects at
	// the same deadline; otherwise start a run on the destination port's
	// train. The last delivery's train has a tail only while that delivery
	// waits, since a train fires in order and anything appended after it
	// would have moved last. Deadlines are in the future, so a waiting run
	// can always still take members.
	if at, seq, ok := m.trains[m.last].Tail(); ok && at == done {
		m.trains[m.last].Append(at, seq, d)
		return
	}
	m.last = pkt.Dst
	m.trains[pkt.Dst].Append(done, m.k.ReserveSeq(), d)
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
