// State capture for the VIC: DV Memory, group counters, the receive train,
// the surprise FIFO and host ring, PCIe/DMA link occupancy, and telemetry.
// DV Memory is walked in ascending page order; pages materialise
// deterministically on first touch, so the page set (not just its contents)
// repeats exactly.

package vic

import (
	"sort"

	"repro/internal/snapshot"
)

// SnapshotTo serialises the VIC's complete mutable state. Parked host
// processes (WaitGCZero waiters and host-FIFO poppers) are goroutine state
// no encoder can reach; only their counts are captured, as a cross-check.
func (v *VIC) SnapshotTo(e *snapshot.Encoder) {
	// DV Memory: word count plus every materialised page, ascending.
	e.Int(v.mem.words)
	ids := make([]uint32, 0, len(v.mem.pages))
	for id := range v.mem.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U32(id)
		for _, w := range v.mem.pages[id] {
			e.U64(w)
		}
	}
	// Group counters, zero-notification state, and parked waiter counts.
	e.I64s(v.gc)
	for i := range v.gcZeroed {
		e.Bool(v.gcZeroed[i])
	}
	for i := range v.gcGate {
		e.Int(v.gcGate[i].Waiters())
	}
	// The receive train, head first. Only its head is a kernel event
	// (covered by the kernel section's fingerprint); the entries behind it
	// exist nowhere else, so each is written with its firing time. Not with
	// its sequence number: that counts the events drawn before it, which the
	// scalar injection reference draws more of, and the image must not tell
	// the two boundaries apart. The train's order stands in for it.
	e.Int(v.rx.Len())
	for i := 0; i < v.rx.Len(); i++ {
		r := v.rx.At(i)
		e.Time(r.at)
		e.U32(uint32(r.src))
		e.U64(r.header)
		e.U64(r.payload)
		e.U32(r.flow)
	}
	// Surprise FIFO (on-VIC) and host ring buffer.
	e.U64s(v.fifo)
	e.U64s(v.hostFIFO.Snapshot())
	e.Bool(v.drainArmed)
	// Per-word attribution flow ids of the buffered FIFO (index-parallel
	// with fifo). Encoded only while a tracer is attached, which is
	// config-determined, so the section shape is stable across a run.
	if v.attr != nil {
		e.U32(uint32(len(v.fifoFlows)))
		for _, fl := range v.fifoFlows {
			e.U32(fl)
		}
	}
	// PCIe lanes and DMA engines.
	e.Time(v.pioWr.BusyUntil())
	e.Time(v.pioWr.Busy)
	e.Time(v.pioRd.BusyUntil())
	e.Time(v.pioRd.Busy)
	e.Time(v.dmaIn.BusyUntil())
	e.Time(v.dmaIn.Busy)
	e.Time(v.dmaOut.BusyUntil())
	e.Time(v.dmaOut.Busy)
	e.Int(v.barrierN)
	// Telemetry.
	e.I64(v.st.PktsSent)
	e.I64(v.st.PktsReceived)
	e.I64(v.st.PCIeBytesOut)
	e.I64(v.st.PCIeBytesIn)
	e.I64(v.st.FIFOPkts)
	e.I64(v.st.FIFODropped)
	e.I64(v.st.Barriers)
	e.I64(v.st.CorruptDropped)
	e.I64(v.st.DMAStalls)
}
