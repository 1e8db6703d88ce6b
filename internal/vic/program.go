package vic

import (
	"fmt"

	"repro/internal/sim"
)

// DMAProgram is a prepared transfer: its packet descriptors (destinations,
// opcodes, addresses, counters) are staged into the VIC's DMA table once,
// and each Trigger re-runs the program with fresh payloads. This models the
// persistent use of the 8192-entry DMA table for fixed communication
// patterns (halo exchanges, spectral transposes): after the first run only
// the doorbell and the payload stream cross PCIe.
type DMAProgram struct {
	v      *VIC
	words  []Word
	staged bool
}

// NewDMAProgram prepares a program from a descriptor template. The payloads
// in words are placeholders; set them with SetPayload before each Trigger.
func (v *VIC) NewDMAProgram(words []Word) *DMAProgram {
	w := make([]Word, len(words))
	copy(w, words)
	return &DMAProgram{v: v, words: w}
}

// SetPayload updates packet i's payload for the next Trigger.
func (pr *DMAProgram) SetPayload(i int, val uint64) { pr.words[i].Val = val }

// Trigger runs the program: the first run stages the descriptors (DMA
// setup); subsequent runs pay only the doorbell plus the payload stream,
// which crosses PCIe chunk by chunk and enters the fabric through the same
// chunk body as a HostSendN DMA transfer.
func (pr *DMAProgram) Trigger(p *sim.Proc) {
	v := pr.v
	n := len(pr.words)
	if n == 0 {
		return
	}
	issue := p.Now() // attribution T0 for every word of this trigger
	if !pr.staged {
		// Staging the table costs one setup per 8192 descriptors.
		tables := (n + v.par.DMATableEntries - 1) / maxInt(v.par.DMATableEntries, 1)
		p.Wait(sim.Time(tables) * v.par.DMASetup)
		pr.staged = true
	}
	p.Wait(v.par.PIOLatency) // doorbell
	v.st.PktsSent += int64(n)
	v.st.PCIeBytesOut += int64(n * 8)
	if v.chk != nil {
		// Only the payload stream crosses PCIe: cached-mode wire size.
		v.chk.HostSent(v, DMACached, n)
	}
	word := func(i int) *Word { return &pr.words[i] }
	chunk := v.dmaChunkWords()
	for base := 0; base < n; base += chunk {
		end := min(base+chunk, n)
		done := v.dmaIn.Occupy(p, sim.BytesAt((end-base)*8, v.par.DMABW))
		v.injectChunk(done, issue, base, end, word)
	}
}

// ReadProgram is a prepared DV-Memory→host DMA: the descriptor is staged
// once, and each Pull pays only the doorbell plus the data stream.
type ReadProgram struct {
	v      *VIC
	addr   uint32
	n      int
	staged bool
}

// NewReadProgram prepares a persistent read of n words at addr.
func (v *VIC) NewReadProgram(addr uint32, n int) *ReadProgram {
	v.mem.check(addr, n)
	return &ReadProgram{v: v, addr: addr, n: n}
}

// Pull executes the read into the caller's row dst, which must hold exactly
// the program's n words, so a caller pulling every step reuses one row.
func (rp *ReadProgram) Pull(p *sim.Proc, dst []uint64) {
	if len(dst) != rp.n {
		panic(fmt.Sprintf("vic: Pull into %d words, program reads %d", len(dst), rp.n))
	}
	v := rp.v
	var setup sim.Time
	if !rp.staged {
		setup = v.par.DMASetup
		rp.staged = true
	}
	v.dmaRead(p, setup, v.par.PIOLatency, dst, rp.addr)
}
