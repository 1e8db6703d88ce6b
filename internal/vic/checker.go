package vic

// Checker observes VIC state transitions on behalf of the invariant layer
// (internal/check). Every method is called synchronously at the seam it
// names, after the VIC's own state has been updated, and must not block,
// advance virtual time, or consume randomness — so an installed checker can
// never change a simulation's results, only watch them. A nil checker costs
// one pointer test per seam.
type Checker interface {
	// GCUpdate fires after group counter gc changes to val; armed is true
	// when the change was a host arm (set) rather than a packet decrement.
	GCUpdate(v *VIC, gc int, val int64, armed bool)
	// FIFOPush fires when a surprise word reaches the on-VIC FIFO; dropped
	// reports a capacity overflow (the word was lost, not buffered).
	FIFOPush(v *VIC, src int, val uint64, dropped bool)
	// FIFOPop fires when the host consumes a surprise word from the ring.
	FIFOPop(v *VIC, val uint64)
	// MemWrite fires after a network OpWrite lands in DV Memory.
	MemWrite(v *VIC, addr uint32, val uint64)
	// HostSent fires when HostSend accepts words for transmission.
	HostSent(v *VIC, mode SendMode, words int)
	// HostRead fires when DMAReadInto/PIOReadInto move words VIC→host.
	HostRead(v *VIC, words int)
	// HostWrote fires when HostWriteMemDMA moves words host→VIC.
	HostWrote(v *VIC, words int)
	// FIFODrained fires when the drain DMA moves words to the host ring.
	FIFODrained(v *VIC, words int)
}

// SetChecker installs (or with nil removes) the invariant checker.
func (v *VIC) SetChecker(c Checker) { v.chk = c }
