package vic

import (
	"fmt"
	"slices"

	"repro/internal/dvswitch"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// SendMode selects the host→network path for a transfer, mirroring the three
// configurations the paper's ping-pong study exercises (§V): direct writes
// with and without pre-cached headers, and DMA with pre-cached headers.
type SendMode int

const (
	// PIO writes header+payload (16 B/packet) across the PCIe lane.
	PIO SendMode = iota
	// PIOCached writes payloads only (8 B/packet); headers were pre-cached
	// in DV Memory.
	PIOCached
	// DMA moves header+payload images (16 B/packet) with the DMA engine.
	DMA
	// DMACached moves payloads only (8 B/packet) with the DMA engine.
	DMACached
)

// String names the mode as the paper's Figure 3 legends do.
func (m SendMode) String() string {
	switch m {
	case PIO:
		return "DWr/NoCached"
	case PIOCached:
		return "DWr/Cached"
	case DMA:
		return "DMA/NoCached"
	case DMACached:
		return "DMA/Cached"
	}
	return "unknown"
}

// WireBytes returns the PCIe bytes per packet for the mode: 8 for cached
// modes (payload only), 16 otherwise (header+payload).
func (m SendMode) WireBytes() int {
	if m == PIOCached || m == DMACached {
		return 8
	}
	return 16
}

// Stats aggregates per-VIC telemetry.
type Stats struct {
	PktsSent     int64
	PktsReceived int64
	PCIeBytesOut int64 // host → VIC
	PCIeBytesIn  int64 // VIC → host
	FIFOPkts     int64
	FIFODropped  int64 // surprise packets lost to a full FIFO
	Barriers     int64

	CorruptDropped int64 // packets discarded by the CRC check (injected faults)
	DMAStalls      int64 // scheduled DMA-engine stalls applied (fault plans)
}

// VIC models one Vortex Interface Controller attached to a fabric port.
// Host-side methods (HostSend, DMAReadInto, WaitGCZero, ...) must be called from
// the owning node's simulated process and advance virtual time; the receive
// path runs inside fabric delivery events.
type VIC struct {
	ID      int
	Port    int
	par     Params
	k       *sim.Kernel
	inject  func(pkt dvswitch.Packet)
	injectB func(pkts []dvswitch.Packet) // batched fabric entry (SetBatchInject)
	rail    int                          // port of VIC id 0 on this VIC's rail (New)

	// mem is the DV Memory: globally addressable single-word slots where
	// only the last-written value is visible (per the paper).
	mem dvMem

	gc       []int64
	gcZeroed []bool // zero already pushed to host

	// gate is where the owning node's process parks on this VIC, and wait
	// what it waits for; setGC, decGC, notifyZero and the host-ring pushes
	// signal the gate when their change ends that wait (gcChanged, pushHost).
	// Only that one process ever waits on a VIC. Once it has returned, wait
	// is stale, and a Signal with nobody parked does nothing.
	gate sim.Gate
	wait hostWait

	fifo     []uint64         // surprise packets buffered on the VIC
	hostRing sim.Ring[uint64] // drained surprise words, for the host to pop

	pioWr, pioRd  sim.Pipe // programmed I/O (single PCIe lane each way)
	dmaIn, dmaOut sim.Pipe // DMA engines (host→VIC, VIC→host)

	barrierN int

	// obs points at the cluster-shared instrument (SetObs); nil when
	// observability is disabled.
	obs *Obs

	// chk observes state transitions for the invariant layer (SetChecker);
	// nil when checking is disabled.
	chk Checker
	// attr is the attribution tracer (SetAttr); nil when flow tracing is
	// disabled. Every stamp call is nil-safe, so the disabled path costs
	// one pointer test per seam.
	attr *attr.Tracer
	// mut plants deliberate defects for checker validation (SetMutation).
	mut Mutation

	// scalar selects the legacy one-kernel-event-per-packet injection
	// boundary instead of the batched pipeline (SetScalarBoundary). The two
	// are bit-identical in results — pinned by differential tests — so the
	// scalar path survives only as the executable reference the batched path
	// is checked against. Receives take the train (rx) on both.
	scalar bool
	// drainArmed: a drain of fifo to hostRing is scheduled. It sits beside
	// the other small fields so the struct packs into its size class.
	drainArmed bool

	// rx is the receive train: the packets Receive accepted, waiting for
	// their execution ProcDelay after arrival, in arrival order, on pages
	// from the VIC's own yard. Only the head is a kernel event (see
	// Receive).
	rxYard sim.Yard[rxRec]
	rx     sim.Train[rxRec]

	// Pooled payloads for the batched boundary: FIFO-drain completions
	// recycle through a free list so the steady-state hot path schedules
	// kernel events without allocating.
	drainFree []*drainEvent
	fifoSpare []uint64 // drained buffer awaiting reuse (double-buffering)

	// scratch holds the inject batches' pool and the buffer fireInjectBatch
	// expands a batch's records into for the fabric call: allocated on first
	// use, or shared by every VIC of a cluster (ShareScratch).
	scratch *pktScratch

	// The host verbs' chains (see pioSend and hostXfer), pooled like the
	// batches so that a warm send or read allocates nothing.
	pioFree  []*pioSend
	xferFree []*hostXfer

	// fifoFlows tracks, index-parallel with fifo, the attribution flow id of
	// each buffered surprise word, so the drain can close each flow's drain
	// stage at the instant its word reaches the host ring. Maintained only
	// while attr is attached (nil and untouched otherwise); flowSpare
	// double-buffers it exactly as fifoSpare does fifo.
	fifoFlows []uint32
	flowSpare []uint32

	st Stats
}

// chunkRec is one packet of an inject batch, waiting for its injection
// event: the 24 bytes of a fresh dvswitch.Packet that vary. The rest is the
// same for every packet a VIC injects — its source is the VIC's port, and a
// fresh packet is never corrupt and has no telemetry yet — so a batch
// holding records instead of 64-byte Packets keeps a DMA chunk's backlog
// at 24 bytes a word.
type chunkRec struct {
	header, payload uint64
	dst             int32 // fabric port
	flow            uint32
}

// injectBatch carries every packet of one boundary crossing — a DMA chunk
// landing, a PIO word, or a query reply — into a single kernel event. The
// packets are injected in slice order, which is exactly the order the legacy
// per-packet events (same timestamp, consecutive sequence numbers) fired in,
// so batching is invisible in results. Destinations are resolved to fabric
// ports when the batch is built.
type injectBatch struct {
	v    *VIC
	recs []chunkRec
}

// pktScratch is what the VICs sharing it keep for injection once, not once
// each. pkts is the Packet buffer a batch is expanded into for the fabric
// call: it grows to the largest batch (one DMA chunk) and is reused by every
// injection event, since the fabric copies what it keeps before InjectBatch
// returns and injection events never nest. batchFree is the pool of empty
// inject batches, each keeping its record storage, so a run holds as many
// chunk-sized batches as are waiting at once across the VICs, not the sum
// of each VIC's own high-water mark.
type pktScratch struct {
	pkts      []dvswitch.Packet
	batchFree []*injectBatch
}

// fireInjectBatch injects a batch into the fabric and recycles the payload.
// Package-level (not a closure) so Kernel.AtArg carries only the pointer.
// The whole batch goes to the fabric in one call: a MultiPlane splits a
// call by plane, so cutting a batch into several calls would change the
// order in which its planes draw kernel sequence numbers.
func fireInjectBatch(a any) {
	b := a.(*injectBatch)
	v, recs := b.v, b.recs
	if v.injectB != nil {
		pkts := slices.Grow(v.scratch.pkts[:0], len(recs))[:len(recs)]
		for i := range recs {
			pkts[i] = v.packetOf(&recs[i])
		}
		if v.attr != nil {
			now := v.k.Now()
			for i := range recs {
				v.attr.Stamp(recs[i].flow, attr.StageSRAM, now)
			}
		}
		v.injectB(pkts)
		v.scratch.pkts = pkts
	} else {
		for i := range recs {
			v.injectPkt(v.packetOf(&recs[i]))
		}
	}
	b.recs = recs[:0]
	v.scratch.batchFree = append(v.scratch.batchFree, b)
}

// packetOf expands a record into the fabric packet it stands for.
func (v *VIC) packetOf(r *chunkRec) dvswitch.Packet {
	return dvswitch.Packet{Src: v.Port, Dst: int(r.dst), Header: r.header, Payload: r.payload, Flow: r.flow}
}

// ShareScratch makes v take its inject batches from the same pool as o, and
// expand them in the same buffer. The cluster shares one among all its VICs,
// which run on one kernel, so a run holds one chunk's worth of expanded
// Packets instead of one per VIC, and one pool of batches.
func (v *VIC) ShareScratch(o *VIC) {
	if o.scratch == nil {
		o.scratch = new(pktScratch)
	}
	v.scratch = o.scratch
}

// newBatch returns a pooled (or fresh) empty inject batch of v's.
func (v *VIC) newBatch() *injectBatch {
	if v.scratch == nil {
		v.scratch = new(pktScratch)
	}
	sc := v.scratch
	if n := len(sc.batchFree); n > 0 {
		b := sc.batchFree[n-1]
		sc.batchFree = sc.batchFree[:n-1]
		b.v = v
		return b
	}
	return &injectBatch{v: v}
}

// drainEvent is the pooled payload of one FIFO-drain completion: the batch
// of words whose DMA transfer into the host ring just finished, plus their
// attribution flow ids (nil when tracing is off).
type drainEvent struct {
	v     *VIC
	batch []uint64
	flows []uint32
}

// fireDrain lands one drained batch in the host ring, recycles the buffer
// into the double-buffer spare, and re-arms the drain if more words arrived
// while the DMA was in flight.
func fireDrain(a any) {
	d := a.(*drainEvent)
	v, batch, flows := d.v, d.batch, d.flows
	d.batch = nil
	d.flows = nil
	v.drainFree = append(v.drainFree, d)
	for i, w := range batch {
		v.pushHost(w)
		if v.attr != nil && i < len(flows) {
			v.attr.Complete(flows[i], v.k.Now())
		}
	}
	v.fifoSpare = batch[:0]
	if flows != nil {
		v.flowSpare = flows[:0]
	}
	if len(v.fifo) > 0 {
		v.k.After(v.par.FIFODrainDelay, v.drainFIFO)
	} else {
		v.drainArmed = false
	}
}

// New builds a VIC with id id at fabric port port. inject delivers a packet
// into the fabric at the current virtual time; the cluster layer wires it to
// the shared switch. The VICs of one rail sit at consecutive ports, so the
// VIC with id j on this VIC's rail is at port port-id+j: a rail's ids are
// node ids, not ports.
func New(k *sim.Kernel, id, port int, par Params, inject func(pkt dvswitch.Packet)) *VIC {
	v := &VIC{
		ID:       id,
		Port:     port,
		rail:     port - id,
		par:      par,
		k:        k,
		inject:   inject,
		mem:      newDVMem(par.MemWords),
		gc:       make([]int64, par.GroupCounters),
		gcZeroed: make([]bool, par.GroupCounters),
	}
	for i := range v.gcZeroed {
		v.gcZeroed[i] = true // counters start at zero, already "notified"
	}
	v.rxYard.Init(k, v.executeRun)
	v.rx.Init(&v.rxYard)
	return v
}

// Params returns the VIC's parameters.
func (v *VIC) Params() Params { return v.par }

// Stats returns a copy of the VIC's telemetry.
func (v *VIC) Stats() Stats { return v.st }

// ---------------------------------------------------------------------------
// Host-side send paths

// HostSend transfers a batch of packets from the host across PCIe and
// injects them into the fabric: HostSendN over the slice. Under HostSendN's
// contract words[i] is read as packet i crosses PCIe, or up to one block
// ahead of it on a direct write, so the slice must not change until HostSend
// returns.
func (v *VIC) HostSend(p *sim.Proc, mode SendMode, words []Word) {
	v.HostSendN(p, mode, len(words), func(i int) *Word { return &words[i] })
}

// HostSendN transfers n packets from the host across PCIe and injects them
// into the fabric, blocking the calling process until the host buffers are
// reusable (PCIe transfer complete). Packets enter the network pipelined with
// the PCIe transfer, word by word for PIO modes and chunk by chunk for DMA
// modes.
//
// The words are streamed, not held: word(i) is called exactly once per i, in
// ascending order, so a caller can generate each word on demand and no full
// copy of the batch need exist. A DMA mode calls it from inside the chunk
// loop, as packet i crosses PCIe. A PIO mode calls it for a block of up to
// pioBlock words at a time, before the first of them crosses: the process
// fills the block, then one chain (pioSend) moves it across the lane, so the
// process resumes once per block rather than once per word. Either way the
// Word it points to is copied before the next call, so a generator may
// return the same variable every time, and it must read only what cannot
// change while the caller is blocked in the send. (A pointer, because a
// five-field Word returned by value from a func value costs ~10 ns a word in
// spills and copies, as much as the rest of the DMA loop.) Everything else —
// statistics, checker calls, DMA-table setups, chunking, attribution order —
// depends only on n.
func (v *VIC) HostSendN(p *sim.Proc, mode SendMode, n int, word func(i int) *Word) {
	if n == 0 {
		return
	}
	v.st.PktsSent += int64(n)
	bytesPer := mode.WireBytes()
	if v.mut&MutUncountedBytes == 0 {
		v.st.PCIeBytesOut += int64(n * bytesPer)
	}
	if v.chk != nil {
		v.chk.HostSent(v, mode, n)
	}
	issue := p.Now() // attribution T0: the app issued the whole batch here
	switch mode {
	case PIO, PIOCached:
		// Doorbell, then each packet crosses the PCIe lane back to back.
		s := v.newPIOSend()
		s.issue, s.lane, s.door = issue, sim.BytesAt(bytesPer, v.par.PIOWriteBW), v.par.PIOLatency
		for base := 0; base < n; base += pioBlock {
			s.words = slices.Grow(s.words[:0], min(n-base, pioBlock))
			for i := base; i < min(base+pioBlock, n); i++ {
				s.words = append(s.words, *word(i))
			}
			s.next = 0
			p.Chain(s)
		}
		v.pioFree = append(v.pioFree, s)
	case DMA, DMACached:
		p.Wait(v.par.PIOLatency)
		chunk := v.dmaChunkWords()
		for base := 0; base < n; base += chunk {
			if base%maxInt(v.par.DMATableEntries, 1) == 0 {
				// Re-arming the 8192-entry DMA table costs a setup.
				p.Wait(v.par.DMASetup)
			}
			end := min(base+chunk, n)
			done := v.dmaIn.Occupy(p, sim.BytesAt((end-base)*bytesPer, v.par.DMABW))
			v.injectChunk(done, issue, base, end, word)
		}
	default:
		panic(fmt.Sprintf("vic: unknown send mode %d", mode))
	}
}

// pioBlock is the most direct-write words HostSendN generates ahead of the
// PCIe lane, and so the most words one chain of the PIO path moves.
const pioBlock = 64

// pioSend is the sim.Stepper of HostSendN's PIO path over one block of
// words. It runs the loop
//
//	p.Wait(PIOLatency) // first block only
//	for each word w of the block {
//		fl := attr.Begin(...)
//		done := pioWr.Occupy(p, lane)
//		attr.Stamp(fl, StageHostTx, done)
//		inject w at done (+ ProcDelay)
//	}
//
// cut at its waits: each step stamps and injects the word whose crossing
// just ended, then begins and reserves the next, at the event that would
// have resumed the loop. So the kernel's events and the flow ids are the
// loop's, and only the process's resumes fall.
type pioSend struct {
	v     *VIC
	words []Word   // the block, generated before the chain starts
	next  int      // the next word to cross; words[next-1] is on the lane
	door  sim.Time // the doorbell wait, still to pay before the first block
	issue sim.Time // attribution T0 of every word
	lane  sim.Time // one word's lane time
	done  sim.Time // when words[next-1] has crossed
	flow  uint32   // words[next-1]'s flow
}

func (s *pioSend) Step() (sim.Time, bool) {
	v := s.v
	if d := s.door; d > 0 {
		s.door = 0
		return d, true
	}
	if s.next > 0 {
		w := &s.words[s.next-1]
		if v.attr != nil {
			v.attr.Stamp(s.flow, attr.StageHostTx, s.done)
		}
		if v.scalar {
			v.injectAt(s.done, *w, s.flow)
		} else {
			v.injectBatchAt(s.done, w, s.flow)
		}
	}
	if s.next == len(s.words) {
		return 0, false
	}
	w := &s.words[s.next]
	s.next++
	s.flow = 0
	if v.attr != nil {
		s.flow = v.attr.Begin(v.ID, w.Dst, kindForOp(w.Op), s.issue)
	}
	s.done = v.pioWr.Reserve(v.k, s.lane)
	return max(s.done-v.k.Now(), 0), true
}

// newPIOSend returns a pooled (or fresh) PIO chain.
func (v *VIC) newPIOSend() *pioSend {
	if n := len(v.pioFree); n > 0 {
		s := v.pioFree[n-1]
		v.pioFree = v.pioFree[:n-1]
		return s
	}
	return &pioSend{v: v}
}

// dmaChunkWords returns the words one DMA transfer moves (1024 when unset).
func (v *VIC) dmaChunkWords() int {
	if v.par.DMAChunkWords <= 0 {
		return 1024
	}
	return v.par.DMAChunkWords
}

// injectChunk puts words [base, end) — one DMA chunk whose PCIe crossing
// completes at done — on the fabric ProcDelay later, calling word(i) once per
// i in order. It is the one chunk body of HostSendN and DMAProgram.Trigger.
// The batched boundary lands the whole chunk on one pooled kernel event, as
// one record a word; the scalar reference schedules one event per word
// (injectAt). Those events all carried the same timestamp with consecutive
// sequence numbers, so injecting the chunk in order from a single event
// fires identically.
func (v *VIC) injectChunk(done, issue sim.Time, base, end int, word func(i int) *Word) {
	if v.scalar {
		for i := base; i < end; i++ {
			w := *word(i)
			var fl uint32
			if v.attr != nil {
				fl = v.attr.Begin(v.ID, w.Dst, kindForOp(w.Op), issue)
				v.attr.Stamp(fl, attr.StageHostTx, done)
			}
			v.injectAt(done, w, fl)
		}
		return
	}
	b := v.newBatch()
	b.recs = slices.Grow(b.recs, end-base)
	for i := base; i < end; i++ {
		w := word(i)
		var fl uint32
		if v.attr != nil {
			fl = v.attr.Begin(v.ID, w.Dst, kindForOp(w.Op), issue)
			v.attr.Stamp(fl, attr.StageHostTx, done)
		}
		b.recs = append(b.recs, chunkRec{header: w.header(), payload: w.Val, dst: int32(v.portFor(w.Dst)), flow: fl})
	}
	v.k.AtArg(done+v.par.ProcDelay, fireInjectBatch, b)
}

// injectBatchAt schedules a single-record pooled batch at time t (plus the
// VIC's processing delay): injectAt without the per-word closure allocation.
func (v *VIC) injectBatchAt(t sim.Time, w *Word, flow uint32) {
	b := v.newBatch()
	b.recs = append(b.recs, chunkRec{header: w.header(), payload: w.Val, dst: int32(v.portFor(w.Dst)), flow: flow})
	v.k.AtArg(t+v.par.ProcDelay, fireInjectBatch, b)
}

// packet builds the fabric packet for w, its destination VIC id already
// resolved to a port.
func (v *VIC) packet(w Word, flow uint32) dvswitch.Packet {
	return dvswitch.Packet{Src: v.Port, Dst: v.portFor(w.Dst), Header: w.header(), Payload: w.Val, Flow: flow}
}

// portFor maps a destination VIC id on v's rail to its fabric port.
func (v *VIC) portFor(dstVIC int) int { return v.rail + dstVIC }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// injectAt schedules the fabric injection of one word at time t (plus the
// VIC's processing delay) on its own kernel event and closure. Only the scalar
// reference boundary uses it; the product path batches (injectBatchAt,
// injectChunk).
func (v *VIC) injectAt(t sim.Time, w Word, flow uint32) {
	pkt := v.packet(w, flow)
	v.k.At(t+v.par.ProcDelay, func() { v.injectPkt(pkt) })
}

// injectPkt hands one packet to the fabric on its own inject call, closing
// its SRAM stage: the packet leaves the VIC's staging SRAM for the switch's
// injection queue now. fireInjectBatch closes a batch's stages itself.
func (v *VIC) injectPkt(pkt dvswitch.Packet) {
	if v.attr != nil {
		v.attr.Stamp(pkt.Flow, attr.StageSRAM, v.k.Now())
	}
	v.inject(pkt)
}

// SetBatchInject installs the batched fabric entry point: one call injects a
// whole boundary batch, in order, instead of one inject call per packet. When
// unset, batch events fall back to per-packet calls of the scalar inject.
func (v *VIC) SetBatchInject(fn func(pkts []dvswitch.Packet)) { v.injectB = fn }

// SetScalarBoundary selects the legacy one-kernel-event-per-packet boundary
// (true) instead of the batched pipeline (false, the default). Results are
// bit-identical either way — the scalar path is kept as the executable
// reference for the boundary differential tests.
func (v *VIC) SetScalarBoundary(scalar bool) { v.scalar = scalar }

// DMAReadInto pulls len(dst) words starting at addr from DV Memory into the
// host row dst, blocking until the DMA completes.
func (v *VIC) DMAReadInto(p *sim.Proc, dst []uint64, addr uint32) {
	v.dmaRead(p, v.par.PIOLatency+v.par.DMASetup, 0, dst, addr)
}

// dmaRead is the body every DV Memory→host DMA shares: the caller's doorbell
// and descriptor-setup waits (pre, then pre2; a zero wait is none), the
// transfer, its accounting, and the copy into dst.
func (v *VIC) dmaRead(p *sim.Proc, pre, pre2 sim.Time, dst []uint64, addr uint32) {
	v.transfer(p, hostXfer{waits: [2]sim.Time{pre, pre2}, lane: &v.dmaOut,
		d: sim.BytesAt(len(dst)*8, v.par.DMABW), row: dst, addr: addr})
}

// PIOReadInto reads len(dst) words starting at addr via programmed I/O into
// the host row dst (slow path; small reads).
func (v *VIC) PIOReadInto(p *sim.Proc, dst []uint64, addr uint32) {
	v.transfer(p, hostXfer{waits: [2]sim.Time{v.par.PIOLatency}, lane: &v.pioRd,
		d: sim.BytesAt(len(dst)*8, v.par.PIOReadBW), row: dst, addr: addr})
}

// HostWriteMemDMA stages words into the local DV Memory with the DMA engine
// (the fast path for pre-caching payloads before a network scatter).
func (v *VIC) HostWriteMemDMA(p *sim.Proc, addr uint32, vals []uint64) {
	v.transfer(p, hostXfer{waits: [2]sim.Time{v.par.PIOLatency + v.par.DMASetup}, lane: &v.dmaIn,
		d: sim.BytesAt(len(vals)*8, v.par.DMABW), row: vals, addr: addr, write: true})
}

// hostXfer is the sim.Stepper of a host↔DV Memory transfer (DMAReadInto,
// ReadProgram.Pull, PIOReadInto, HostWriteMemDMA). It runs the loop
//
//	p.Wait(waits[0]); p.Wait(waits[1])
//	lane.Occupy(p, d)
//	account, then copy row from or into DV Memory at addr
//
// cut at its waits, each step at the event that would have resumed the
// loop, so the process resumes once per transfer.
type hostXfer struct {
	v        *VIC
	waits    [2]sim.Time // doorbell and setup waits still to pay, in order
	lane     *sim.Pipe
	d        sim.Time // the transfer's lane time
	reserved bool     // the lane is booked; the next step lands the transfer
	row      []uint64 // the host row read into, or written from
	addr     uint32
	write    bool // host → DV Memory
}

func (s *hostXfer) Step() (sim.Time, bool) {
	v := s.v
	for i, d := range s.waits {
		if d > 0 {
			s.waits[i] = 0
			return d, true
		}
	}
	if !s.reserved {
		s.reserved = true
		return max(s.lane.Reserve(v.k, s.d)-v.k.Now(), 0), true
	}
	n := len(s.row)
	if s.write {
		v.st.PCIeBytesOut += int64(n * 8)
		if v.chk != nil {
			v.chk.HostWrote(v, n)
		}
		v.mem.writeRange(s.addr, s.row)
	} else {
		v.st.PCIeBytesIn += int64(n * 8)
		if v.chk != nil {
			v.chk.HostRead(v, n)
		}
		v.mem.readInto(s.row, s.addr)
	}
	return 0, false
}

// transfer runs x on p as a pooled chain, which lets go of the row after.
func (v *VIC) transfer(p *sim.Proc, x hostXfer) {
	var s *hostXfer
	if n := len(v.xferFree); n > 0 {
		s = v.xferFree[n-1]
		v.xferFree = v.xferFree[:n-1]
	} else {
		s = new(hostXfer)
	}
	*s = x
	s.v = v
	p.Chain(s)
	s.row = nil
	v.xferFree = append(v.xferFree, s)
}

// Peek reads a DV Memory word without modelling any cost (test/diagnostic
// backdoor; simulated code must use PIOReadInto/DMAReadInto).
func (v *VIC) Peek(addr uint32) uint64 { return v.mem.read(addr) }

// ---------------------------------------------------------------------------
// Group counters

// LocalSetGC sets a local group counter from the host (one PIO transaction).
func (v *VIC) LocalSetGC(p *sim.Proc, gc int, val int64) {
	p.Wait(v.par.PIOLatency)
	v.setGC(gc, val)
}

// LocalAddGC adjusts a local group counter from the host.
func (v *VIC) LocalAddGC(p *sim.Proc, gc int, delta int64) {
	p.Wait(v.par.PIOLatency)
	v.setGC(gc, v.gc[gc]+delta)
}

// GCValue returns the instantaneous value of a counter (host register read).
func (v *VIC) GCValue(p *sim.Proc, gc int) int64 {
	p.Wait(v.par.PIOLatency)
	return v.gc[gc]
}

func (v *VIC) setGC(gc int, val int64) {
	v.gc[gc] = val
	v.gcZeroed[gc] = false
	if v.chk != nil {
		v.chk.GCUpdate(v, gc, val, true)
	}
	if val == 0 {
		v.notifyZero(gc)
	}
	v.gcChanged(gc)
}

func (v *VIC) decGC(gc int, by int64) {
	v.gc[gc] -= by
	if v.mut&MutGCDoubleDec != 0 {
		v.gc[gc] -= by
	}
	if v.obs != nil {
		v.obs.GCDecs.Inc()
	}
	if v.chk != nil {
		v.chk.GCUpdate(v, gc, v.gc[gc], false)
	}
	if v.gc[gc] == 0 {
		v.notifyZero(gc)
	}
	v.gcChanged(gc)
}

// notifyZero models the VIC pushing its zero-counter list into host memory
// via reverse bus-master DMA during idle PCIe cycles.
func (v *VIC) notifyZero(gc int) {
	v.k.After(v.par.GCNotify, func() {
		if v.gc[gc] == 0 {
			v.gcZeroed[gc] = true
			v.gcChanged(gc)
		}
	})
}

// WaitGCZero blocks until the host observes group counter gc at zero, or
// until the timeout expires; it reports whether zero was observed. The host
// sees zero only through the VIC's pushed notification (GCNotify latency
// after the counter lands on zero), as in the real API where polling host
// memory avoids explicit PCIe reads: packets that merely decrement the
// counter do not reach the host, so an untimed wait is resumed once, by
// the notification.
//
// A timed wait still wakes on every counter change and re-arms its timeout
// for the remainder. That is deliberate: each re-arm queues the deadline
// with a later sequence number, and when the notification lands on the
// deadline instant that number decides whether the wait reports zero or a
// timeout. A single deadline armed at entry loses those ties (dvbench -small
// -exp extN, heat 1e-03 unprotected, reads lost 17 for 16), and the
// committed tables are the fixed point.
func (v *VIC) WaitGCZero(p *sim.Proc, gc int, timeout sim.Time) bool {
	w := hostWait{kind: waitNotified, gc: gc}
	if timeout != sim.Forever {
		w.kind = waitChange
	}
	return v.block(p, w, timeout)
}

// WaitGCAtMost blocks until counter gc's value is <= target, without the
// host-notification latency of WaitGCZero. It models VIC-side waiting and
// backs the intrinsic and subset barriers and the shmem fences.
func (v *VIC) WaitGCAtMost(p *sim.Proc, gc int, target int64) {
	v.block(p, hostWait{kind: waitAtMost, gc: gc, target: target}, sim.Forever)
}

// hostWait is what the host process waits for on its VIC.
type hostWait struct {
	kind   waitKind
	gc     int
	target int64 // waitAtMost's bound
}

type waitKind uint8

const (
	waitNotified waitKind = iota // zero notified on counter gc (WaitGCZero)
	waitAtMost                   // counter gc at most target (WaitGCAtMost)
	waitChange                   // any change of counter gc (a timed WaitGCZero)
	waitSurprise                 // a word in the host ring (PopSurprise)
)

// holds reports whether the condition of w holds now: a timed WaitGCZero
// returns once the zero is notified, whatever woke it.
func (v *VIC) holds(w hostWait) bool {
	switch w.kind {
	case waitNotified, waitChange:
		return v.gcZeroed[w.gc]
	case waitAtMost:
		return v.gc[w.gc] <= w.target
	}
	return v.hostRing.Len() > 0
}

// gcChanged signals the gate when a change of counter gc, just made, ends
// the wait: a timed WaitGCZero's on every change of its counter, the other
// counter waits once their condition holds. A surprise wait never holds
// here while its process is parked: only the push that signalled makes it
// hold.
func (v *VIC) gcChanged(gc int) {
	if w := v.wait; w.gc == gc && (w.kind == waitChange || v.holds(w)) {
		v.gate.Signal(v.k)
	}
}

// block parks p on the VIC's gate until w holds or timeout passes
// (sim.Forever: never), and reports whether w holds. Each wake re-checks w,
// as a wait loop on a condition variable does: something may have undone it
// between the release and the wake event.
func (v *VIC) block(p *sim.Proc, w hostWait, timeout sim.Time) bool {
	deadline := p.Now() + timeout
	for !v.holds(w) {
		v.wait = w
		if timeout == sim.Forever {
			v.gate.Wait(p)
			continue
		}
		remain := deadline - p.Now()
		if remain <= 0 || !v.gate.WaitTimeout(p, remain) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Surprise FIFO

// TryPopSurprise returns the next surprise word from the host ring buffer
// without blocking. Reading the host ring is a plain memory load; any
// per-message processing cost is the application's to model.
func (v *VIC) TryPopSurprise() (uint64, bool) {
	w, ok := v.hostRing.Pop()
	if ok && v.chk != nil {
		v.chk.FIFOPop(v, w)
	}
	return w, ok
}

// PopSurprise blocks until a surprise word reaches the host ring, or the
// timeout expires.
func (v *VIC) PopSurprise(p *sim.Proc, timeout sim.Time) (uint64, bool) {
	if !v.block(p, hostWait{kind: waitSurprise}, timeout) {
		return 0, false
	}
	return v.TryPopSurprise()
}

// pushHost lands a drained surprise word in the host ring.
func (v *VIC) pushHost(w uint64) {
	v.hostRing.Push(w)
	if v.wait.kind == waitSurprise {
		v.gate.Signal(v.k)
	}
}

func (v *VIC) pushSurprise(src int, val uint64, flow uint32) {
	cap := v.par.FIFOCapacity
	if cap <= 0 {
		cap = 1 << 20
	}
	if len(v.fifo) >= cap {
		// The bufferless paper hardware has finite SRAM for the surprise
		// queue; overflow loses the packet (the developer is responsible
		// for draining fast enough).
		v.st.FIFODropped++
		if v.chk != nil {
			v.chk.FIFOPush(v, src, val, true)
		}
		if v.attr != nil {
			v.attr.Drop(flow)
		}
		return
	}
	v.st.FIFOPkts++
	if v.chk != nil {
		v.chk.FIFOPush(v, src, val, false)
	}
	v.fifo = append(v.fifo, val)
	if v.attr != nil {
		v.fifoFlows = append(v.fifoFlows, flow)
	}
	if !v.drainArmed {
		v.drainArmed = true
		v.k.After(v.par.FIFODrainDelay, v.drainFIFO)
	}
}

// drainFIFO is the background DMA process moving surprise packets into the
// host-side circular buffer. The whole backlog crosses as one amortized DMA
// transfer (one reservation, one completion event, one PCIe accounting line),
// and on the batched boundary the on-VIC buffer double-buffers with the
// previously drained one so steady-state draining never allocates.
func (v *VIC) drainFIFO() {
	batch := v.fifo
	var flows []uint32
	if v.scalar {
		v.fifo = nil
		if v.attr != nil {
			flows, v.fifoFlows = v.fifoFlows, nil
		}
	} else {
		v.fifo = v.fifoSpare[:0]
		v.fifoSpare = nil
		if v.attr != nil {
			flows, v.fifoFlows = v.fifoFlows, v.flowSpare[:0]
			v.flowSpare = nil
		}
	}
	if len(batch) == 0 {
		v.drainArmed = false
		return
	}
	done := v.dmaOut.Reserve(v.k, sim.BytesAt(len(batch)*8, v.par.DMABW))
	v.st.PCIeBytesIn += int64(len(batch) * 8)
	if v.chk != nil {
		v.chk.FIFODrained(v, len(batch))
	}
	if v.mut&MutFIFODrainReorder != 0 {
		for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
			batch[i], batch[j] = batch[j], batch[i]
			if flows != nil {
				flows[i], flows[j] = flows[j], flows[i]
			}
		}
	}
	if v.scalar {
		v.k.At(done, func() {
			for i, w := range batch {
				v.pushHost(w)
				if v.attr != nil && i < len(flows) {
					v.attr.Complete(flows[i], v.k.Now())
				}
			}
			if len(v.fifo) > 0 {
				v.k.After(v.par.FIFODrainDelay, v.drainFIFO)
			} else {
				v.drainArmed = false
			}
		})
		return
	}
	d := v.newDrain()
	d.batch = batch
	d.flows = flows
	v.k.AtArg(done, fireDrain, d)
}

// newDrain returns a pooled (or fresh) drain-completion payload.
func (v *VIC) newDrain() *drainEvent {
	if n := len(v.drainFree); n > 0 {
		d := v.drainFree[n-1]
		v.drainFree = v.drainFree[:n-1]
		return d
	}
	return &drainEvent{v: v}
}

// ---------------------------------------------------------------------------
// Receive path

// rxRec is one accepted packet on a VIC's receive train: what execute reads
// of it. 24 bytes and no pointer, so the collector never scans a train; its
// execution's kernel key waits beside it on the train.
type rxRec struct {
	header  uint64
	payload uint64
	src     int32 // fabric port
	flow    uint32
}

// Receive executes an arriving packet ProcDelay after it arrives. It is
// called by the cluster layer from within the fabric's delivery event and
// must not block. Packets whose payload was corrupted in flight fail the
// link CRC and are discarded here; to the sending application a corruption
// is indistinguishable from a drop.
//
// The executions wait on the VIC's receive train (sim.Train), and only its
// head is a kernel event, so the kernel holds one pending execution per VIC
// instead of one per word in flight. The key is drawn here, where the
// execution's own event would have drawn it: at is the arrival plus
// ProcDelay, a per-VIC constant, and Receive is called in kernel order, so
// both keys rise from head to tail, as a train requires.
func (v *VIC) Receive(pkt dvswitch.Packet) {
	if r, ok := v.accept(&pkt); ok {
		v.rx.Append(v.k.Now()+v.par.ProcDelay, v.k.ReserveSeq(), r)
	}
}

// accept counts an arriving packet and returns its train record; a
// corrupted packet is dropped instead.
func (v *VIC) accept(pkt *dvswitch.Packet) (rxRec, bool) {
	v.st.PktsReceived++
	if pkt.Corrupt {
		v.st.CorruptDropped++
		if v.attr != nil {
			v.attr.Drop(pkt.Flow)
		}
		return rxRec{}, false
	}
	return rxRec{header: pkt.Header, payload: pkt.Payload, src: int32(pkt.Src), flow: pkt.Flow}, true
}

// executeRun executes the head of the receive train. Every record has a key
// of its own, so a run is one record.
func (v *VIC) executeRun(run []rxRec) {
	for i := range run {
		v.execute(&run[i])
	}
}

// StallDMA wedges both DMA engines for d starting at time at (clamped to the
// present), modelling a firmware hiccup or host IOMMU stall from a fault
// plan. Transfers already in progress finish late; new ones queue behind the
// stall.
func (v *VIC) StallDMA(at, d sim.Time) {
	if d <= 0 {
		return
	}
	if now := v.k.Now(); at < now {
		at = now
	}
	v.k.At(at, func() {
		v.st.DMAStalls++
		v.dmaIn.ReserveAt(at, d)
		v.dmaOut.ReserveAt(at, d)
	})
}

func (v *VIC) execute(r *rxRec) {
	_, op, gc, addr := DecodeHeader(r.header)
	// Attribution: the eject stage (eject FIFO + VIC processing delay)
	// closes here; ops with immediate host visibility complete with a
	// zero-length drain stage, FIFO words complete at the host-ring drain.
	if v.attr != nil && r.flow != 0 {
		v.attr.Stamp(r.flow, attr.StageEject, v.k.Now())
	}
	switch op {
	case OpWrite:
		v.mem.write(addr, r.payload)
		if v.chk != nil {
			v.chk.MemWrite(v, addr, r.payload)
		}
		if gc != NoGC {
			v.decGC(gc, 1)
		}
		if v.attr != nil {
			v.attr.Complete(r.flow, v.k.Now())
		}
	case OpFIFO:
		v.pushSurprise(int(r.src), r.payload, r.flow)
		if gc != NoGC {
			v.decGC(gc, 1)
		}
	case OpSetGC:
		v.setGC(int(addr), int64(r.payload))
		if v.attr != nil {
			v.attr.Complete(r.flow, v.k.Now())
		}
	case OpDecGC:
		v.decGC(int(addr), int64(r.payload))
		if v.attr != nil {
			v.attr.Complete(r.flow, v.k.Now())
		}
	case OpQuery:
		// The payload is the return header; the requested word becomes the
		// reply payload. The reply VIC need not be the querying VIC.
		// The request flow completes here; the reply is its own flow,
		// issued by this VIC without a host PCIe crossing.
		dstVIC, _, _, _ := DecodeHeader(r.payload)
		var replyFlow uint32
		if v.attr != nil {
			v.attr.Complete(r.flow, v.k.Now())
			replyFlow = v.attr.Begin(v.ID, dstVIC, attr.KindQuery, v.k.Now())
		}
		reply := chunkRec{header: r.payload, payload: v.mem.read(addr), dst: int32(v.portFor(dstVIC)), flow: replyFlow}
		if v.scalar {
			pkt := v.packetOf(&reply)
			v.k.After(v.par.ProcDelay, func() { v.injectPkt(pkt) })
			return
		}
		b := v.newBatch()
		b.recs = append(b.recs, reply)
		v.k.AfterArg(v.par.ProcDelay, fireInjectBatch, b)
	default:
		panic(fmt.Sprintf("vic %d: unknown opcode %d", v.ID, op))
	}
}

// ---------------------------------------------------------------------------
// Intrinsic barrier

// BarrierInit pre-arms the two reserved barrier counters for a group of n
// VICs. Every VIC in the group must call it before the first Barrier.
//
// The intrinsic barrier is a binomial gather/release tree run by the VICs
// over the two reserved counters: BarrierGCA counts the node's children
// checking in, BarrierGCB counts the single release packet from the parent.
// The host is involved only to kick the barrier off and to observe
// completion, matching the paper's description of a fast, whole-system,
// hardware-supported barrier (§III, Figure 4).
func (v *VIC) BarrierInit(n int) {
	v.barrierN = n
	v.gc[v.par.BarrierGCA] = int64(len(barrierChildren(v.ID, n)))
	v.gc[v.par.BarrierGCB] = 1
	v.gcZeroed[v.par.BarrierGCA] = false
	v.gcZeroed[v.par.BarrierGCB] = false
}

// barrierChildren returns the children of id in a binary reduction tree
// over [0, n).
func barrierChildren(id, n int) []int {
	var kids []int
	for _, c := range [2]int{2*id + 1, 2*id + 2} {
		if c < n {
			kids = append(kids, c)
		}
	}
	return kids
}

// Barrier performs the API's intrinsic whole-system barrier. Latency grows
// only logarithmically (with a very small constant) in the node count, which
// is why the paper's Figure 4 shows it staying flat from 2 to 32 nodes.
func (v *VIC) Barrier(p *sim.Proc) {
	v.st.Barriers++
	n := v.barrierN
	p.Wait(v.par.PIOLatency) // host kicks the VIC
	if n <= 1 {
		p.Wait(v.par.GCNotify)
		return
	}
	gcA, gcB := v.par.BarrierGCA, v.par.BarrierGCB
	kids := barrierChildren(v.ID, n)
	// Gather: wait for all children to check in.
	v.WaitGCAtMost(p, gcA, 0)
	if v.ID != 0 {
		// Check in with the parent, then wait for the release.
		v.sendBarrierPkt(p, (v.ID-1)/2, gcA)
		v.WaitGCAtMost(p, gcB, 0)
	}
	// Re-arm before releasing the children: their next check-in can only be
	// sent after the release we are about to forward.
	v.gc[gcA] = int64(len(kids))
	v.gc[gcB] = 1
	for _, c := range kids {
		v.sendBarrierPkt(p, c, gcB)
	}
	p.Wait(v.par.GCNotify) // host observes completion
}

// sendBarrierPkt injects a counter-decrement packet directly from the VIC
// (no PCIe round trip: the barrier runs in VIC hardware).
func (v *VIC) sendBarrierPkt(p *sim.Proc, dst, gcID int) {
	w := Word{Dst: dst, Op: OpDecGC, GC: NoGC, Addr: uint32(gcID), Val: 1}
	var fl uint32
	if v.attr != nil {
		fl = v.attr.Begin(v.ID, dst, attr.KindGC, p.Now())
	}
	pkt := v.packet(w, fl)
	p.Wait(v.par.ProcDelay)
	v.injectPkt(pkt)
}

// InjectDecGC fires a single VIC-side counter-decrement packet (no PCIe per
// packet). It backs the hardware-supported subset barriers: the host kicks
// the operation once; the VICs exchange the synchronisation packets.
func (v *VIC) InjectDecGC(p *sim.Proc, dst, gcID int) {
	v.st.PktsSent++
	v.sendBarrierPkt(p, dst, gcID)
}
