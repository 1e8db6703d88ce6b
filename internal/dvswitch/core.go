// Package dvswitch implements the Data Vortex switch: a multilevel,
// bufferless, self-routed deflection network (Hawkins et al. 2007; the
// electronic FPGA implementation evaluated by Gioiosa et al. 2017).
//
// The switch is a set of C = log2(H)+1 nested cylinders, each with H rings
// ("heights") of A switching nodes ("angles"). Packets are injected on the
// outermost cylinder and ejected from the innermost. Every cycle every packet
// advances one angle; it either descends one cylinder (when the height bit
// that cylinder resolves already matches the destination and no deflection
// signal blocks it) or traverses a deflection path within its cylinder that
// toggles the bit under resolution. Contention is resolved without buffers:
// same-cylinder traffic asserts a deflection signal that forces the would-be
// descender to deflect, statistically costing two extra hops, exactly as the
// paper describes.
//
// Two engines share one interface: Core (cycle-accurate, ground truth) and
// FastModel (calibrated analytic model for long application runs).
package dvswitch

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Packet is one Data Vortex network packet: a 64-bit header and a 64-bit
// payload. Routing uses only Dst; Header carries the VIC-level command
// (destination address, group counter, opcode) and is opaque to the switch.
type Packet struct {
	Src     int    // source port
	Dst     int    // destination port
	Header  uint64 // VIC-level header word (opaque here)
	Payload uint64 // data word

	// Telemetry, filled in by the switch.
	InjectCycle int64 // cycle at which the packet entered the fabric
	Hops        int   // switching nodes traversed
	Deflections int   // deflection-path traversals (routing or contention)

	// Corrupt marks a payload damaged by an injected link fault. The switch
	// still delivers the packet; the receiving VIC's CRC model discards it.
	Corrupt bool

	// Flow is the attribution flow id stamped by the issuing VIC (0 =
	// untraced). Opaque to the switch: routing never reads it. Packs into
	// the struct's existing padding, so Packet stays 64 bytes.
	Flow uint32
}

// WireBytes is the size of a packet on the wire: 64-bit header + 64-bit
// payload.
const WireBytes = 16

// Params describes a switch instance.
type Params struct {
	Heights int // H: rings per cylinder; must be a power of two
	Angles  int // A: switching nodes per ring
}

// MaxGeometryCells bounds the total switching-node count C×H×A of a valid
// geometry. The core's cell grid indexes and packet references are all
// int32/uint32 encodings; past this bound they would wrap silently, so
// Validate rejects such geometries with a GeometryError instead. 2^30 cells (a ~96 GiB grid) is far past any simulable fabric —
// the bound exists to make the overflow impossible, not to be reachable.
const MaxGeometryCells = 1 << 30

// GeometryError reports a structurally invalid or out-of-range switch
// geometry. Field names the offending Params field (or derived quantity),
// Value its actual value, and Reason the violated constraint.
type GeometryError struct {
	Field  string
	Value  int
	Reason string
}

// Error formats the violation as "field = value: reason".
func (e *GeometryError) Error() string {
	return fmt.Sprintf("dvswitch: invalid geometry: %s = %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks structural constraints: Heights a positive power of two,
// Angles >= 1, and the derived cell grid within the int32 index encodings
// (see MaxGeometryCells). Errors are *GeometryError.
func (p Params) Validate() error {
	if p.Heights < 1 || p.Heights&(p.Heights-1) != 0 {
		return &GeometryError{Field: "Heights", Value: p.Heights,
			Reason: "must be a positive power of two"}
	}
	if p.Angles < 1 {
		return &GeometryError{Field: "Angles", Value: p.Angles, Reason: "must be >= 1"}
	}
	// Cells = C*H*A must stay within the int32 cell/pool encodings.
	// Bound each factor first so the staged products cannot overflow int64.
	if p.Heights > MaxGeometryCells {
		return &GeometryError{Field: "Heights", Value: p.Heights,
			Reason: fmt.Sprintf("exceeds MaxGeometryCells (%d)", MaxGeometryCells)}
	}
	if p.Angles > MaxGeometryCells {
		return &GeometryError{Field: "Angles", Value: p.Angles,
			Reason: fmt.Sprintf("exceeds MaxGeometryCells (%d)", MaxGeometryCells)}
	}
	ports := int64(p.Heights) * int64(p.Angles) // <= 2^60, no overflow
	if ports > MaxGeometryCells {
		return &GeometryError{Field: "Heights×Angles", Value: p.Heights,
			Reason: fmt.Sprintf("%d ports exceed MaxGeometryCells (%d)", ports, MaxGeometryCells)}
	}
	if cells := int64(p.Cylinders()) * ports; cells > MaxGeometryCells {
		return &GeometryError{Field: "Cylinders×Heights×Angles", Value: p.Heights,
			Reason: fmt.Sprintf("%d switching nodes exceed MaxGeometryCells (%d); int32 cell indexes would wrap", cells, MaxGeometryCells)}
	}
	return nil
}

// Ports returns the number of input (and output) ports, Nt = A×H.
func (p Params) Ports() int { return p.Heights * p.Angles }

// Cylinders returns C = log2(H) + 1.
func (p Params) Cylinders() int { return bits.Len(uint(p.Heights)) }

// ForPorts returns the smallest square-ish switch geometry with at least n
// ports, preferring more heights than angles (heights must be a power of 2).
//
// The paper's construction needs A >= C = log2(H)+1: a packet entering at an
// arbitrary angle must be able to resolve one height bit per cylinder within
// a single revolution, so rings shorter than the cylinder count force extra
// laps and deflection hot-spots. The old heuristic capped Angles at 4 for
// every n, which degenerates into tall-thin fabrics (e.g. 1024 ports as
// H=256×A=4, C=9 > A) at large radix; here we start from that shape and
// shrink Heights until the ring is long enough for the cylinder count.
func ForPorts(n int) Params {
	h := 1
	for h*4 < n { // grow heights while angles would exceed 4
		h *= 2
	}
	a := (n + h - 1) / h
	if a < 1 {
		a = 1
	}
	// Rebalance: halving H doubles (roughly) A and drops C by one, so the
	// loop terminates — at H=1, C=1 <= A. For n <= 32 the initial shape
	// already satisfies A >= C and is returned unchanged.
	for a < bits.Len(uint(h)) {
		h /= 2
		a = (n + h - 1) / h
	}
	return Params{Heights: h, Angles: a}
}

// PortCoord maps a port index to its (height, angle) coordinates.
func (p Params) PortCoord(port int) (h, a int) { return port / p.Angles, port % p.Angles }

// Stats aggregates fabric telemetry.
type Stats struct {
	Injected       int64
	Delivered      int64
	TotalHops      int64
	TotalDeflected int64 // total deflection-path traversals
	TotalLatency   int64 // cycles, inject→eject, including injection queueing
	MaxLatency     int64
	QueuedCycles   int64 // cycles packets spent waiting in injection queues
	Dropped        int64 // packets lost to injected faults (fault studies)
	Corrupted      int64 // payload corruptions injected by link faults

	// LatHist buckets delivered-packet latencies by log2(cycles):
	// bucket i counts latencies in [2^i, 2^(i+1)) (obs.Log2Bucket).
	LatHist [obs.HistBuckets]int64
}

// Merge accumulates o into s: counters and histogram buckets sum,
// MaxLatency takes the maximum. Used to aggregate multi-plane fabrics.
func (s *Stats) Merge(o Stats) {
	s.Injected += o.Injected
	s.Delivered += o.Delivered
	s.TotalHops += o.TotalHops
	s.TotalDeflected += o.TotalDeflected
	s.TotalLatency += o.TotalLatency
	if o.MaxLatency > s.MaxLatency {
		s.MaxLatency = o.MaxLatency
	}
	s.QueuedCycles += o.QueuedCycles
	s.Dropped += o.Dropped
	s.Corrupted += o.Corrupted
	for i := range s.LatHist {
		s.LatHist[i] += o.LatHist[i]
	}
}

func (s *Stats) recordLatency(lat int64) {
	s.TotalLatency += lat
	if lat > s.MaxLatency {
		s.MaxLatency = lat
	}
	s.LatHist[obs.Log2Bucket(lat)]++
}

// LatencyPercentile returns an upper bound (bucket boundary, in cycles) on
// the p-th percentile latency, 0 < p <= 100.
func (s Stats) LatencyPercentile(p float64) int64 {
	target := int64(p / 100 * float64(s.Delivered))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range s.LatHist {
		seen += c
		if seen >= target {
			return 1 << uint(i+1)
		}
	}
	return s.MaxLatency
}

// MeanLatency returns the mean inject→eject latency in cycles.
func (s Stats) MeanLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}

// MeanDeflections returns the mean deflection count per delivered packet.
func (s Stats) MeanDeflections() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalDeflected) / float64(s.Delivered)
}

// qrec is one packet waiting in an injection queue: exactly what Inject was
// given, minus the source (the queue's port), the flow (on its page's side
// array, see qpage) and the telemetry the fabric fills in later. 24 bytes,
// written once and read once: the Corrupt flag rides in the top bit of DstC,
// free because a port index is below MaxGeometryCells (2^30), and the inject
// cycle is kept as its low 32 bits, rebuilt against the core's clock
// (injectCycle) the way pflight.entry is: the subtraction is wrap-safe
// because no packet waits 2^32 cycles.
type qrec struct {
	Header  uint64
	Payload uint64
	cycle   uint32 // uint32(inject cycle)
	DstC    uint32 // destination port | qCorrupt
}

// qCorrupt is qrec.DstC's Corrupt bit.
const qCorrupt = 1 << 31

// dst returns the record's destination port.
func (r *qrec) dst() int { return int(r.DstC &^ qCorrupt) }

// qpageLen is the number of records on one injection-queue page.
const qpageLen = 16

// qpage is a fixed block of queued records. Pages are linked into a port's
// FIFO and, once emptied, into the core's page free list; a record is never
// moved after Inject writes it. next comes first so the collector scans only
// the links, not the records. flows holds the records' attribution flow ids,
// index-parallel with rec; it is allocated the first time a non-zero flow
// lands on the page and kept with the page after, so an untraced run's pages
// carry only the nil pointer.
type qpage struct {
	next  *qpage
	flows *[qpageLen]uint32
	rec   [qpageLen]qrec
}

// flow returns the flow id of record i.
func (pg *qpage) flow(i int) uint32 {
	if pg.flows == nil {
		return 0
	}
	return pg.flows[i]
}

// injectCycle rebuilds the full inject cycle of a record still queued.
func (c *Core) injectCycle(r *qrec) int64 {
	return c.cycle - int64(uint32(c.cycle)-r.cycle)
}

// queuedPacket rebuilds the Packet that Inject was given at port, now record
// i of page pg, with zero hop and deflection counters.
func (c *Core) queuedPacket(port int, pg *qpage, i int) Packet {
	r := &pg.rec[i]
	return Packet{Src: port, Dst: r.dst(), Header: r.Header, Payload: r.Payload,
		InjectCycle: c.injectCycle(r), Corrupt: r.DstC&qCorrupt != 0, Flow: pg.flow(i)}
}

// portq is one port's injection FIFO: records from head.rec[hi] through
// tail.rec[ti-1], across a chain of pages.
type portq struct {
	head, tail *qpage
	hi, ti     int
	n          int
}

// pflight is the hot in-flight state of one pooled packet: destination
// coordinates (precomputed at alloc so routing never divides), the cycle the
// packet was placed into the fabric, and its deflection count.
//
// The hop counter is gone: hops are derived. Every in-flight packet makes
// exactly one angular move per step, and every exit (eject, drop on a dead
// node, drop on a link fault) happens before that step's move, so
//
//	Hops = exit_step − entry_step − 1
//
// holds on all paths — including the legacy dead-deflection drop, whose
// increment/decrement pair cancels. Deriving hops at eject/drop time
// removes a read-modify-write from every ring move in the hot loop. entry is
// a truncated cycle counter; the subtraction is wrap-safe because no flight
// lasts 2^32 cycles.
type pflight struct {
	dh, da int32
	entry  uint32 // uint32(cycle) at injectPhase placement
	defl   uint32 // deflection-path traversals
}

// cellTab is the precomputed routing table for one switching node: the
// neighbour cell indexes a packet can move to and the height bit this
// cylinder resolves. Computing these once at construction removes every
// division and modulo from the per-packet hot path (moveCell), which
// profiling showed dominated Step at high occupancy.
type cellTab struct {
	next int32 // same-cylinder next-angle cell (output-ring circling)
	desc int32 // descend target: (cyl+1, h, a+1); -1 on the output ring
	defl int32 // deflection target: (cyl, h^bit, a+1); -1 on the output ring
	da   int32 // this cell's angle (output-ring eject comparison)
	hbit int32 // value of the resolved height bit at this cell
	cyl  int16 // cylinder index (per-cylinder deflection counters)
	bit  uint8 // height bit resolved by this cylinder
}

// Core is the cycle-accurate switch simulator. It is driven by calling Step
// once per switch cycle; it has no notion of wall time.
//
// The switch is bufferless, and the storage follows: a packet waiting to
// enter is stored once, in its port's paged FIFO, and takes a pool slot only
// when injectPhase places it on a cell, so the pool never outgrows the cell
// count. The occupancy grids hold pool references (pool index + 1, 0 =
// empty) instead of pointers, so a long run creates no garbage. Step walks
// only the set bits of the occupancy bitmap and clears only the scratch cells
// it wrote, so a cycle costs O(in-flight packets), not O(fabric size) — the
// regime that matters for the paper's sparse irregular traffic (GUPS, BFS).
type Core struct {
	p      Params
	levels int // L = log2(H); cylinder L is the output ring
	cylN   int // nodes per cylinder (Heights × Angles)

	pool []Packet // index-addressed in-flight packets; cap ≤ len(grid)
	free []int32  // reusable pool references

	// Hot per-packet routing state, split from the pool: moveCell touches
	// only these 16 bytes per packet per cycle instead of dragging the full
	// Packet through the cache. pool[i] remains authoritative for identity
	// fields (Src/Dst/Header/Payload/InjectCycle/Corrupt); hops and
	// deflections live here for the packet's whole flight and are copied
	// back into the Packet at eject/drop time (packetAt).
	pstate []pflight

	tab    []cellTab // per-cell routing table, index-parallel with grid
	portPF []pflight // port → fresh flight state (precomputed coordinates)

	grid []int32 // node occupancy, flattened [c][h][a]; pool ref or 0
	next []int32 // scratch: next node occupancy

	// Occupancy and scratch state are tracked as bitmaps, one bit per
	// switching node. Iterating set bits (bits.TrailingZeros64) visits
	// occupied cells in ascending index order for free, which is exactly the
	// dense-scan order the golden differential tests pin — the sparse stepper
	// needs no bucketing and no sorting. place becomes a single OR-store,
	// and end-of-step clearing touches a handful of words instead of walking
	// per-cell dirty lists. nxtMask is also the deflection signal: see
	// moveCell.
	occMask []uint64 // occupancy bitmap of grid (bit set ⇔ grid[idx] != 0)
	nxtMask []uint64 // scratch: occupancy bitmap of next

	inq    []portq  // per-port injection queues
	qmask  []uint64 // bitmap: ports with non-empty injection queues
	qfree  *qpage   // emptied queue pages, linked through next
	qpages int      // queue pages owned, queued or free

	cycle  int64
	flying int
	queued int

	// Deliver is invoked for every ejected packet with the delivery cycle.
	// It must be set before the first Step.
	Deliver func(pkt Packet, cycle int64)

	// Dense routes every Step through denseStep: a full-fabric scan that
	// applies moveCell, the routing specification, to every occupied node.
	// It is bit-identical to the sparse Step (same Stats, same delivery
	// order, same fault-RNG consumption — enforced by the golden
	// differential tests), which on clean runs checks the hand-inlined
	// sparseMovesClean against moveCell. It is the reference half of that
	// comparison and is set by tests only (TestOraclesAreTestOnly); NewCore
	// starts sparse.
	Dense bool

	// faulty marks dead switching nodes (fault-injection studies in the
	// spirit of the reliability analyses the paper cites, refs [12][13]).
	// A packet whose only legal moves lead into dead nodes is dropped and
	// counted, since a bufferless fabric cannot hold it.
	faulty []bool

	// fp/frng configure probabilistic per-link faults (SetFaultProbs).
	fp   FaultProbs
	frng *sim.RNG

	// DropHook, when set, observes every packet lost to an injected fault
	// (dead node or probabilistic drop). Used by invariant tests.
	DropHook func(pkt Packet)

	// OnCycleEnd, when set, runs at the end of every Step, after the cycle
	// counter has advanced — on the sparse and the dense path alike, so an
	// invariant sweep (internal/check) observes both implementations through
	// one seam. It must only observe; mutating the core from the hook is
	// undefined.
	OnCycleEnd func(c *Core)

	// mut plants deliberate defects for checker validation (SetMutation).
	mut Mutation

	// obs holds the per-cylinder deflection counters (SetObs); nil when
	// observability is disabled, so cleanPath gates on it.
	obs *SwitchObs

	stats Stats

	// heat is the attribution layer's cylinder×angle deflection census
	// (SetHeat); nil when attribution is disabled. Like obs it forces the
	// instrumented move loops, so cleanPath gates on it. Kept after stats
	// so the hot counters keep their field offsets.
	heat *attr.Heat

	// par, when set (SetFanPool), lets clean-path cycles above an occupancy
	// threshold fan their move phase across a worker pool — bit-identical to
	// the serial step (see par.go).
	par *parState
}

// NewCore builds a cycle-accurate switch. It panics on invalid Params
// (construction is programmer-controlled; misuse is a bug, not input error).
func NewCore(p Params) *Core {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cyl := p.Cylinders()
	n := cyl * p.Heights * p.Angles
	words := (n + 63) / 64
	c := &Core{
		p:       p,
		levels:  cyl - 1,
		cylN:    p.Heights * p.Angles,
		pool:    make([]Packet, 0, p.Ports()),
		pstate:  make([]pflight, 0, p.Ports()),
		grid:    make([]int32, n),
		next:    make([]int32, n),
		occMask: make([]uint64, words),
		nxtMask: make([]uint64, words),
		inq:     make([]portq, p.Ports()),
		qmask:   make([]uint64, (p.Ports()+63)/64),
		tab:     make([]cellTab, n),
	}
	c.buildTab()
	c.portPF = make([]pflight, p.Ports())
	for port := range c.portPF {
		h, a := p.PortCoord(port)
		c.portPF[port] = pflight{dh: int32(h), da: int32(a)}
	}
	return c
}

// buildTab fills the routing table from the geometry and the planted routing
// mutations, so the defects live in the table and moveCell has no branch for
// them: MutBitOffByOne makes each resolving cylinder test and toggle bit
// (bit+1) mod L instead of its own, and MutStickyOutputRing gives output-ring
// cells an angle no packet ejects at. NewCore and SetMutation call it.
func (c *Core) buildTab() {
	p := c.p
	L := c.levels
	for cl := 0; cl <= L; cl++ {
		for h := 0; h < p.Heights; h++ {
			for a := 0; a < p.Angles; a++ {
				t := &c.tab[c.idx(cl, h, a)]
				na := (a + 1) % p.Angles
				t.cyl = int16(cl)
				t.da = int32(a)
				t.next = int32(c.idx(cl, h, na))
				if cl == L {
					t.desc, t.defl = -1, -1
					if c.mut&MutStickyOutputRing != 0 {
						t.da = -1
					}
					continue
				}
				bit := uint(L - 1 - cl)
				if c.mut&MutBitOffByOne != 0 && L > 1 {
					bit = (bit + 1) % uint(L)
				}
				t.bit = uint8(bit)
				t.hbit = int32((h >> bit) & 1)
				t.desc = int32(c.idx(cl+1, h, na))
				t.defl = int32(c.idx(cl, h^(1<<bit), na))
			}
		}
	}
}

// Prewarm grows the packet pool, its free list and the queue-page free list
// to hold n concurrently live packets (in flight plus queued) without any
// further allocation: the pool to min(n, cells), since only in-flight packets
// hold a slot, and the pages to ⌈n/16⌉ plus one partly filled page for every
// port that can be waiting. Steady-state traffic below that high-water mark
// then runs with zero heap growth; benchmarks use it to prove the hot path is
// 0 B/op. It is purely a capacity hint — no observable state changes — and is
// safe to call at any point between Steps.
func (c *Core) Prewarm(n int) {
	slots := min(n, len(c.grid))
	if cap(c.pool) < slots {
		c.growPool(slots)
	}
	if cap(c.free) < slots {
		c.free = append(make([]int32, 0, slots), c.free...)
	}
	for c.qpages < (n+qpageLen-1)/qpageLen+min(n, len(c.inq)) {
		c.qpages++
		c.freePage(new(qpage))
	}
}

// Params returns the switch geometry.
func (c *Core) Params() Params { return c.p }

// Cycle returns the core's clock in switch cycles: the number of Step calls
// so far, plus the idle cycles an Engine skipped (see setIdleClock).
func (c *Core) Cycle() int64 { return c.cycle }

// setIdleClock moves an idle core's clock forward to cycle. An Engine does
// not step its core while nothing is queued or in flight, so after an idle
// gap it calls this to make the clock read virtual time again. Idle cycles
// only shift deliveries (TestIdleCyclesShiftDeliveries), so skipping them
// changes nothing else. It panics if the core is busy or the clock would run
// back.
func (c *Core) setIdleClock(cycle int64) {
	if c.Busy() || cycle < c.cycle {
		panic(fmt.Sprintf("dvswitch: setIdleClock(%d) at cycle %d with %d queued and %d in flight",
			cycle, c.cycle, c.queued, c.flying))
	}
	c.cycle = cycle
}

// Stats returns a copy of the aggregated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Busy reports whether any packet is in flight or queued for injection.
func (c *Core) Busy() bool { return c.flying > 0 || c.queued > 0 }

// QueueLen returns the injection queue depth of a port.
func (c *Core) QueueLen(port int) int { return c.inq[port].n }

// alloc moves the head record of port's queue, record i of page pg, into the
// pool as a packet entering the fabric this cycle and returns its reference
// (index+1), reusing a freed slot when one exists. The hot struct-of-arrays
// columns (destination coordinates, entry cycle, deflection counter) are
// populated here; the telemetry in pool[ref-1] itself stays zeroed until
// eject/drop materialises the authoritative values via packetAt.
func (c *Core) alloc(port int, pg *qpage, i int) int32 {
	st := c.portPF[pg.rec[i].dst()]
	st.entry = uint32(c.cycle)
	if n := len(c.free); n > 0 {
		ref := c.free[n-1]
		c.free = c.free[:n-1]
		c.pool[ref-1] = c.queuedPacket(port, pg, i)
		c.pstate[ref-1] = st
		return ref
	}
	if len(c.pool) == cap(c.pool) {
		// Every live slot holds a cell, so the pool never needs more slots
		// than the fabric has cells.
		c.growPool(min(2*cap(c.pool), len(c.grid)))
	}
	c.pool = append(c.pool, c.queuedPacket(port, pg, i))
	c.pstate = append(c.pstate, st)
	return int32(len(c.pool))
}

// growPool moves the packet pool and its parallel hot-state column to
// backing arrays of capacity n, keeping both flat slices of equal length.
func (c *Core) growPool(n int) {
	c.pool = append(make([]Packet, 0, n), c.pool...)
	c.pstate = append(make([]pflight, 0, n), c.pstate...)
}

// packetAt materialises the full Packet for an in-flight pool reference,
// folding the struct-of-arrays state back into the telemetry fields.
func (c *Core) packetAt(ref int32) Packet {
	pkt := c.pool[ref-1]
	st := c.pstate[ref-1]
	pkt.Hops = int(int32(uint32(c.cycle) - st.entry - 1))
	pkt.Deflections = int(int32(st.defl))
	return pkt
}

// release returns a pool slot to the free list. The caller must have copied
// the packet out first: this cycle's inject phase may reuse the slot.
func (c *Core) release(ref int32) { c.free = append(c.free, ref) }

// freePage puts an emptied queue page on the core's page free list.
func (c *Core) freePage(pg *qpage) {
	pg.next = c.qfree
	c.qfree = pg
}

// push appends r, with its flow id, to port's injection FIFO, opening a page
// from the free list (or a new one) when the tail page is full.
func (c *Core) push(port int, r qrec, flow uint32) {
	q := &c.inq[port]
	if q.tail == nil || q.ti == qpageLen {
		pg := c.qfree
		if pg != nil {
			c.qfree, pg.next = pg.next, nil
		} else {
			c.qpages++
			pg = new(qpage)
		}
		if q.tail == nil {
			q.head, q.hi = pg, 0
		} else {
			q.tail.next = pg
		}
		q.tail, q.ti = pg, 0
	}
	pg := q.tail
	pg.rec[q.ti] = r
	if pg.flows != nil {
		pg.flows[q.ti] = flow
	} else if flow != 0 {
		pg.flows = new([qpageLen]uint32)
		pg.flows[q.ti] = flow
	}
	q.ti++
	q.n++
}

// pop drops the head record of q, returning each page to the free list as
// soon as its last record has left.
func (c *Core) pop(q *portq) {
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		c.freePage(q.head)
		*q = portq{}
	case q.hi == qpageLen:
		pg := q.head
		q.head, q.hi = pg.next, 0
		c.freePage(pg)
	}
}

// Inject enqueues a packet for injection at its source port. The packet
// enters the fabric at the first cycle its injection node is free.
func (c *Core) Inject(pkt Packet) {
	if pkt.Src < 0 || pkt.Src >= c.p.Ports() || pkt.Dst < 0 || pkt.Dst >= c.p.Ports() {
		panic(fmt.Sprintf("dvswitch: port out of range: src=%d dst=%d ports=%d", pkt.Src, pkt.Dst, c.p.Ports()))
	}
	c.qmask[pkt.Src>>6] |= 1 << (uint(pkt.Src) & 63)
	dstC := uint32(pkt.Dst)
	if pkt.Corrupt {
		dstC |= qCorrupt
	}
	c.push(pkt.Src, qrec{Header: pkt.Header, Payload: pkt.Payload, cycle: uint32(c.cycle),
		DstC: dstC}, pkt.Flow)
	c.queued++
	c.stats.Injected++
}

// InjectBatch queues a whole boundary batch, in order. It is semantically
// identical to calling Inject per element — injection-queue occupancy and
// RNG draw order are position-dependent, so the loop must stay strictly
// in order.
func (c *Core) InjectBatch(pkts []Packet) {
	for i := range pkts {
		c.Inject(pkts[i])
	}
}

func (c *Core) idx(cyl, h, a int) int {
	return (cyl*c.p.Heights+h)*c.p.Angles + a
}

// place writes a pool reference into the next-occupancy scratch and sets its
// occupancy bit (next cycle's iteration source and clearing worklist).
func (c *Core) place(idx int, ref int32) {
	c.next[idx] = ref
	c.nxtMask[idx>>6] |= 1 << (uint(idx) & 63)
}

// Step advances the fabric by one switch cycle: every in-flight packet moves
// one angle (descending, deflecting, circling, or ejecting), then injection
// ports fill any free outermost node.
//
// Only occupied nodes are visited, at every occupancy: the walk takes the set
// bits of the occupancy bitmap cylinder by cylinder, which reproduces the
// dense scan order (inner cylinders first, then height-major within a
// cylinder) exactly — delivery order and fault-RNG draws are bit-identical to
// denseStep.
func (c *Core) Step() {
	if c.Dense {
		c.denseStep()
		return
	}
	if c.parEligible() {
		c.parStep()
		return
	}
	// Inner cylinders first: their same-cylinder moves set the
	// next-occupancy bits that outer cylinders' descends test. Within a
	// cylinder, set bits come out in ascending cell order — the dense-scan
	// order — with no bucketing or sorting.
	if c.cleanPath() {
		c.sparseMovesClean()
	} else {
		for cl := c.levels; cl >= 0; cl-- {
			base := cl * c.cylN
			end := base + c.cylN
			for w := base >> 6; w<<6 < end; w++ {
				wb := w << 6
				mask := c.occMask[w]
				if wb < base {
					mask &^= 1<<uint(base-wb) - 1
				}
				if e := end - wb; e < 64 {
					mask &= 1<<uint(e) - 1
				}
				for mask != 0 {
					idx := wb + bits.TrailingZeros64(mask)
					mask &= mask - 1
					c.moveCell(idx, c.grid[idx])
				}
			}
		}
	}
	c.injectPhase()
	c.finishStep()
}

// cleanPath reports whether the hand-inlined move loops may be used: no
// planted mutation, no dead nodes, no probabilistic link faults, and no
// per-event instruments. The clean loops are line-for-line the same routing
// decisions as moveCell with every fault/mutation/obs branch deleted, so the
// choice is invisible in results — only in nanoseconds.
func (c *Core) cleanPath() bool {
	return c.mut == 0 && c.faulty == nil && c.frng == nil && c.obs == nil && c.heat == nil
}

// The clean move loops (sparseMovesClean below, parStep in par.go)
// hand-inline the routing decisions of moveCell (the specification of what
// one move does) with every fault, mutation, and obs branch deleted, the
// output ring split out of the inner-cylinder loop (so the ring test is not
// re-asked per packet), and the descend-vs-deflect choice made without a
// branch: contention makes that branch a coin flip, and a mispredict costs
// more than the whole rest of a hop. The transformation is exact:
//
//	blocked = (bit mismatch) | (next-occupancy bit of the descend target)
//	target  = desc ^ (desc^defl) & -blocked   (a mask select, no jump)
//	defl   += blocked                         (0 or 1)
//
// go1.24 compiles `if blocked == 0 { ni = desc }` to a test and a jump, not
// a conditional move, hence the mask. Slice headers are held in locals so
// the stores do not force reloads of c's fields each iteration.

// sparseMovesClean is the clean-path move phase over the occupancy bitmap.
// The routing bodies are written out in place (the compiler's inlining
// budget rejects them as a helper, and the call overhead is measurable at
// this grain).
func (c *Core) sparseMovesClean() {
	grid := c.grid
	next := c.next
	nxtMask := c.nxtMask
	pstate := c.pstate
	tab := c.tab
	occ := c.occMask
	// Output ring (cylinder L): eject at the destination angle, else circle.
	base := c.levels * c.cylN
	end := base + c.cylN
	for w := base >> 6; w<<6 < end; w++ {
		wb := w << 6
		mask := occ[w]
		if wb < base {
			mask &^= 1<<uint(base-wb) - 1
		}
		if e := end - wb; e < 64 {
			mask &= 1<<uint(e) - 1
		}
		for mask != 0 {
			idx := wb + bits.TrailingZeros64(mask)
			mask &= mask - 1
			ref := grid[idx]
			t := &tab[idx]
			if pstate[ref-1].da == t.da {
				c.eject(ref)
				continue
			}
			ni := t.next
			next[ni] = ref
			nxtMask[ni>>6] |= 1 << (uint32(ni) & 63)
		}
	}
	// Inner cylinders: descend or deflect, by mask select.
	for cl := c.levels - 1; cl >= 0; cl-- {
		base := cl * c.cylN
		end := base + c.cylN
		for w := base >> 6; w<<6 < end; w++ {
			wb := w << 6
			mask := occ[w]
			if wb < base {
				mask &^= 1<<uint(base-wb) - 1
			}
			if e := end - wb; e < 64 {
				mask &= 1<<uint(e) - 1
			}
			for mask != 0 {
				idx := wb + bits.TrailingZeros64(mask)
				mask &= mask - 1
				ref := grid[idx]
				t := &tab[idx]
				f := &pstate[ref-1]
				d := t.desc
				blocked := uint32((f.dh>>t.bit)&1^t.hbit) | uint32(nxtMask[d>>6]>>(uint32(d)&63))&1
				ni := d ^ (d^t.defl)&-int32(blocked)
				f.defl += blocked
				next[ni] = ref
				nxtMask[ni>>6] |= 1 << (uint32(ni) & 63)
			}
		}
	}
}

// moveCell advances the packet ref occupying node idx by one angle, using
// the precomputed routing table — no division, no coordinate arithmetic,
// and only the struct-of-arrays columns of the packet are touched. It is
// the specification of one hop: the sparse Step applies it whenever faults,
// mutations or instruments are on, and denseStep applies it on every run,
// so the differential tests hold the hand-inlined clean loops to it. The
// routing mutations are rewrites of the table it reads (buildTab).
//
// The paper's deflection signal on a cell (a packet of the same cylinder is
// being routed into it this cycle) is the cell's next-occupancy bit. Step
// moves cylinder cl+1 before cylinder cl, so when a packet of cylinder cl
// tests its descend target d, the bit of d was set by a same-cylinder move
// of cl+1 or by a descend into d; descend targets are injective, so that
// descend could only be the tester's own, which has not happened yet.
// TestSignalOracleLockstep holds this against an explicit signal set.
func (c *Core) moveCell(idx int, ref int32) {
	t := &c.tab[idx]
	f := &c.pstate[ref-1]
	if t.desc < 0 {
		// Output ring: circle to the destination angle, then eject.
		if f.da == t.da {
			c.eject(ref)
			return
		}
		ni := int(t.next)
		if c.faulty != nil && c.faulty[ni] {
			c.drop(ref)
			return
		}
		if c.frng != nil && c.linkFault(ref) {
			return
		}
		c.place(ni, ref)
		return
	}
	if c.frng != nil && c.linkFault(ref) {
		return
	}
	if (f.dh>>t.bit)&1 == t.hbit {
		d := int(t.desc)
		signalled := c.mut&MutDropDeflectSignal == 0 && c.nxtMask[d>>6]>>(uint(d)&63)&1 != 0
		if !signalled && (c.faulty == nil || !c.faulty[d]) {
			// Descend: bit matches and no deflection signal.
			c.place(d, ref)
			return
		}
	}
	// Deflect within the cylinder, toggling the bit under
	// resolution (preserves the already-resolved prefix).
	ni := int(t.defl)
	if c.faulty != nil && c.faulty[ni] {
		// Both legal moves are dead: the bufferless fabric
		// cannot hold the packet.
		c.drop(ref)
		return
	}
	f.defl++
	if c.obs != nil {
		c.obs.DeflectByCyl[t.cyl].Inc()
	}
	c.heat.Add(int(t.cyl), idx%c.p.Angles)
	c.place(ni, ref)
}

// injectPhase fills free entry nodes from the waiting ports, visited in
// ascending port order (the dense scan order over cylinder 0). Port p enters
// at cylinder-0 cell p, so the waiting ports with a free entry node are one
// word operation, qmask &^ nxtMask, and set bits come out sorted; a port's
// qmask bit stays set while its queue is non-empty (busy entry node, or the
// node is down).
func (c *Core) injectPhase() {
	if c.queued == 0 {
		return
	}
	for w, mask := range c.qmask {
		wb := w << 6
		for m := mask &^ c.nxtMask[w]; m != 0; m &= m - 1 {
			port := wb + bits.TrailingZeros64(m)
			if c.faulty != nil && c.faulty[port] {
				continue
			}
			q := &c.inq[port]
			c.stats.QueuedCycles += int64(uint32(c.cycle) - q.head.rec[q.hi].cycle)
			c.place(port, c.alloc(port, q.head, q.hi))
			c.pop(q)
			c.queued--
			c.flying++
			if q.n == 0 {
				c.qmask[w] &^= 1 << uint(port-wb)
			}
		}
	}
}

// finishStep publishes the next occupancy and resets the scratch state by
// clearing exactly the cells this step touched (no full-array wipes).
func (c *Core) finishStep() {
	c.grid, c.next = c.next, c.grid
	// c.next now holds the pre-step occupancy; its stale cells are exactly
	// the set bits of the old occupancy mask. At high occupancy a wholesale
	// memclr beats per-bit stores (the untouched cells are already zero, so
	// clearing everything is idempotent); below that, clear bit by bit.
	if c.flying*4 >= len(c.next) {
		clear(c.next)
		clear(c.occMask)
	} else {
		for w, mask := range c.occMask {
			if mask != 0 {
				wb := w << 6
				for ; mask != 0; mask &= mask - 1 {
					c.next[wb+bits.TrailingZeros64(mask)] = 0
				}
				c.occMask[w] = 0
			}
		}
	}
	c.occMask, c.nxtMask = c.nxtMask, c.occMask
	c.cycle++
	if c.OnCycleEnd != nil {
		c.OnCycleEnd(c)
	}
}

// denseStep is the reference stepper: every node of every cylinder is
// visited each cycle, occupied or not, and every occupied one moves through
// moveCell. It shares injectPhase and finishStep with the sparse Step — the
// only differences are the iteration source and that it never takes the
// hand-inlined clean loop. With Core.Dense set it is the reference half of
// the golden differential tests (see diff_test.go).
func (c *Core) denseStep() {
	for cl := c.levels; cl >= 0; cl-- {
		base := cl * c.cylN
		for j, ref := range c.grid[base : base+c.cylN] {
			if ref != 0 {
				c.moveCell(base+j, ref)
			}
		}
	}
	c.injectPhase()
	c.finishStep()
}

func (c *Core) eject(ref int32) {
	pkt := c.packetAt(ref)
	c.release(ref)
	c.flying--
	c.stats.Delivered++
	c.stats.TotalHops += int64(pkt.Hops)
	c.stats.TotalDeflected += int64(pkt.Deflections)
	c.stats.recordLatency(c.cycle + 1 - pkt.InjectCycle)
	if c.Deliver != nil {
		c.Deliver(pkt, c.cycle+1)
		if c.mut&MutDoubleDeliver != 0 {
			c.Deliver(pkt, c.cycle+1)
		}
	}
}

// SetFaulty marks a switching node dead (or repairs it). Packets route
// around dead nodes by deflection where possible; a packet with no live
// move is dropped and counted in Stats.Dropped.
func (c *Core) SetFaulty(cyl, h, a int, dead bool) {
	if c.faulty == nil {
		c.faulty = make([]bool, len(c.grid))
	}
	c.faulty[c.idx(cyl, h, a)] = dead
}

// drop discards a packet lost to a fault.
func (c *Core) drop(ref int32) {
	pkt := c.packetAt(ref)
	c.release(ref)
	c.flying--
	if c.mut&MutSkipDropCount == 0 {
		c.stats.Dropped++
	}
	if c.DropHook != nil {
		c.DropHook(pkt)
	}
}

// ForEachInFlight calls fn for every packet currently occupying a switching
// node, in dense-scan order (cylinder-major ascending, then height, then
// angle) — the same order on the sparse and dense paths, so an invariant
// sweep sees identical sequences from both. id is the packet's pool
// reference: stable for the packet's whole flight and never shared by two
// concurrently in-flight packets, which makes it a duplication witness.
func (c *Core) ForEachInFlight(fn func(id int32, cyl, h, a int, pkt Packet)) {
	p := c.p
	for cl := 0; cl <= c.levels; cl++ {
		for h := 0; h < p.Heights; h++ {
			for a := 0; a < p.Angles; a++ {
				if ref := c.grid[c.idx(cl, h, a)]; ref != 0 {
					fn(ref, cl, h, a, c.packetAt(ref))
				}
			}
		}
	}
}

// RunUntilIdle steps until no packets remain (or maxCycles elapse) and
// returns the number of cycles stepped. It is a convenience for tests and
// traffic studies.
func (c *Core) RunUntilIdle(maxCycles int64) int64 {
	var n int64
	for c.Busy() && n < maxCycles {
		c.Step()
		n++
	}
	return n
}
