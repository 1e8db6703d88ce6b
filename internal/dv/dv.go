// Package dv is the Data Vortex programming model of §III: the application-
// facing API over the VIC. It mirrors the structure of the real dvapi
// library — packet sends through the PIO and DMA paths, globally addressable
// DV Memory, group counters for completion detection, the surprise FIFO for
// unscheduled messages, query packets, and the intrinsic barrier — plus the
// symmetric allocators SPMD programs need to agree on addresses and counter
// ids across nodes.
//
// Direct translation of MPI primitives onto this API is deliberately not
// provided: as the paper stresses, algorithms must be restructured around
// fine-grained packets, source-side aggregation, and pre-armed counters to
// perform well. The workloads under internal/apps show those idioms.
package dv

import (
	"math"

	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/vic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(w uint64) float64 { return math.Float64frombits(w) }

// Endpoint is one node's handle on the Data Vortex network.
type Endpoint struct {
	V    *vic.VIC
	rank int
	size int
	p    *sim.Proc

	heapNext uint32
	gcNext   int

	rel *reliableState // lazily-initialised reliable-delivery layer

	// obs points at the cluster-shared reliable-layer instruments no
	// ReliableStats field owns (SetObs); nil when observability is disabled.
	obs *RelObs

	// chk observes reliable-layer progress for the invariant layer
	// (SetChecker); nil when checking is disabled.
	chk Checker
	// mut plants deliberate defects for checker validation (SetMutation).
	mut Mutation

	// attr is the attribution tracer (SetAttr); the reliable layer brackets
	// retransmission rounds with it so re-sent flows carry their retransmit
	// epoch. Nil when flow tracing is disabled.
	attr *attr.Tracer
}

// SetAttr attaches (or with nil detaches) the attribution tracer to the
// endpoint's reliable layer. The VIC-level stamps are attached separately
// (vic.SetAttr); this seam only tags retransmit epochs.
func (e *Endpoint) SetAttr(t *attr.Tracer) { e.attr = t }

// NewEndpoint wraps a VIC as rank's endpoint in a size-node program.
func NewEndpoint(v *vic.VIC, rank, size int) *Endpoint {
	return &Endpoint{V: v, rank: rank, size: size, gcNext: 1} // GC 0 is scratch
}

// Bind attaches the endpoint to its node's simulated process.
func (e *Endpoint) Bind(p *sim.Proc) { e.p = p }

// Rank returns this endpoint's node id.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of nodes.
func (e *Endpoint) Size() int { return e.size }

// Proc returns the bound simulated process.
func (e *Endpoint) Proc() *sim.Proc { return e.p }

// Alloc reserves words of DV Memory from the symmetric heap and returns the
// base address. Every node must perform the same Alloc sequence so the
// addresses agree cluster-wide — the coordination discipline the paper
// describes for DV Memory slot reuse. Exhausting the heap panics with an
// *OOMError; use TryAlloc to handle exhaustion gracefully.
func (e *Endpoint) Alloc(words int) uint32 {
	base, err := e.TryAlloc(words)
	if err != nil {
		panic(err)
	}
	return base
}

// TryAlloc is Alloc returning a typed *OOMError instead of panicking when
// the symmetric heap cannot satisfy the request. The bound arithmetic is
// 64-bit, so a request large enough to wrap the uint32 heap cursor fails
// cleanly rather than wrapping to address 0.
func (e *Endpoint) TryAlloc(words int) (uint32, error) {
	limit := e.memLimit()
	if e.rel != nil {
		limit = int(e.rel.limit) // reliable scratch occupies the top of memory
	}
	if words < 0 || int64(e.heapNext)+int64(words) > int64(limit) {
		return 0, &OOMError{Op: "Alloc", Addr: e.heapNext, Words: words, Limit: limit}
	}
	base := e.heapNext
	e.heapNext += uint32(words)
	return base, nil
}

// AllocGC reserves a group counter from the symmetric pool (skipping the
// scratch counter, the two barrier-reserved counters, and the counter the
// reliable-delivery layer uses as its ack path).
func (e *Endpoint) AllocGC() int {
	gc := e.gcNext
	if gc >= e.ackGC() {
		panic("dv: out of group counters")
	}
	e.gcNext++
	return gc
}

// ---------------------------------------------------------------------------
// Sends

// Put writes vals into dst's DV Memory starting at addr, decrementing dst's
// group counter gc once per word (vic.NoGC to skip counting). The words are
// streamed into the VIC, vals[i] read as packet i crosses PCIe (a direct
// write reads up to one block ahead), so no packet slice is built and vals
// must not change until Put returns.
func (e *Endpoint) Put(mode vic.SendMode, dst int, addr uint32, gc int, vals []uint64) {
	e.checkRange("Put", addr, len(vals))
	w := vic.Word{Dst: dst, Op: vic.OpWrite, GC: gc}
	e.ScatterN(mode, len(vals), func(i int) *vic.Word {
		w.Addr, w.Val = addr+uint32(i), vals[i]
		return &w
	})
}

// Scatter sends an arbitrary batch of packets — different destinations,
// addresses, and opcodes — in one host transfer. This is the paper's
// "aggregation at source": many fine-grained packets to many destinations
// amortise one PCIe transfer, which the Data Vortex fabric then routes
// without destination aggregation.
func (e *Endpoint) Scatter(mode vic.SendMode, words []vic.Word) {
	e.V.HostSend(e.p, mode, words)
}

// ScatterN is Scatter over n words that word generates on demand, under
// vic.HostSendN's contract: word(i) is called once per i, in ascending
// order, as packet i crosses PCIe (a direct write up to one block ahead),
// and may return the same variable each time. A large scatter then needs no
// flat copy.
func (e *Endpoint) ScatterN(mode vic.SendMode, n int, word func(i int) *vic.Word) {
	e.V.HostSendN(e.p, mode, n, word)
}

// FIFOPut pushes vals onto dst's surprise FIFO, streamed as Put streams.
func (e *Endpoint) FIFOPut(mode vic.SendMode, dst int, vals []uint64) {
	w := vic.Word{Dst: dst, Op: vic.OpFIFO, GC: vic.NoGC}
	e.ScatterN(mode, len(vals), func(i int) *vic.Word {
		w.Val = vals[i]
		return &w
	})
}

// ---------------------------------------------------------------------------
// Completion, receive, and local memory

// ArmGC sets a local group counter to the number of words expected. Per the
// paper, the counter must be armed before the first packet arrives —
// typically followed by a Barrier.
func (e *Endpoint) ArmGC(gc int, count int64) { e.V.LocalSetGC(e.p, gc, count) }

// AddGC adjusts a local group counter (re-arming between phases).
func (e *Endpoint) AddGC(gc int, delta int64) { e.V.LocalAddGC(e.p, gc, delta) }

// GCValue reads a local group counter's instantaneous value (one PIO
// register read).
func (e *Endpoint) GCValue(gc int) int64 { return e.V.GCValue(e.p, gc) }

// WaitGC blocks until group counter gc reaches zero or timeout expires; it
// reports whether zero was observed.
func (e *Endpoint) WaitGC(gc int, timeout sim.Time) bool {
	return e.V.WaitGCZero(e.p, gc, timeout)
}

// Read DMA-transfers n words of local DV Memory into a fresh host row:
// ReadInto a new slice.
func (e *Endpoint) Read(addr uint32, n int) []uint64 {
	dst := make([]uint64, n)
	e.ReadInto(dst, addr)
	return dst
}

// ReadInto DMA-transfers len(dst) words of local DV Memory at addr into the
// caller's row dst, so a caller reading many rows can reuse one.
func (e *Endpoint) ReadInto(dst []uint64, addr uint32) {
	e.checkRange("Read", addr, len(dst))
	e.V.DMAReadInto(e.p, dst, addr)
}

// WriteLocal stages words into local DV Memory via the DMA engine.
func (e *Endpoint) WriteLocal(addr uint32, vals []uint64) {
	e.checkRange("WriteLocal", addr, len(vals))
	e.V.HostWriteMemDMA(e.p, addr, vals)
}

// TryPopFIFO returns the next surprise word visible to the host, if any.
func (e *Endpoint) TryPopFIFO() (uint64, bool) { return e.V.TryPopSurprise() }

// PopFIFO blocks for the next surprise word or the timeout.
func (e *Endpoint) PopFIFO(timeout sim.Time) (uint64, bool) {
	return e.V.PopSurprise(e.p, timeout)
}

// Barrier executes the intrinsic whole-system barrier.
func (e *Endpoint) Barrier() { e.V.Barrier(e.p) }

// NewProgram prepares a persistent DMA-table program for a fixed
// communication pattern; see vic.DMAProgram.
func (e *Endpoint) NewProgram(words []vic.Word) *vic.DMAProgram {
	return e.V.NewDMAProgram(words)
}

// Trigger runs a prepared program from this endpoint's process.
func (e *Endpoint) Trigger(pr *vic.DMAProgram) { pr.Trigger(e.p) }

// NewReadProgram prepares a persistent DV-Memory read.
func (e *Endpoint) NewReadProgram(addr uint32, n int) *vic.ReadProgram {
	return e.V.NewReadProgram(addr, n)
}

// Pull executes a prepared read from this endpoint's process into the
// caller's row dst (exactly the program's length).
func (e *Endpoint) Pull(rp *vic.ReadProgram, dst []uint64) { rp.Pull(e.p, dst) }
