package vic

import (
	"repro/internal/obs/attr"
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
// setup); subsequent runs pay only the doorbell plus the payload stream.
func (pr *DMAProgram) Trigger(p *sim.Proc) {
	v := pr.v
	if len(pr.words) == 0 {
		return
	}
	issue := p.Now() // attribution T0 for every word of this trigger
	if !pr.staged {
		// Staging the table costs one setup per 8192 descriptors.
		n := (len(pr.words) + v.par.DMATableEntries - 1) / maxInt(v.par.DMATableEntries, 1)
		p.Wait(sim.Time(n) * v.par.DMASetup)
		pr.staged = true
	}
	p.Wait(v.par.PIOLatency) // doorbell
	v.st.PktsSent += int64(len(pr.words))
	v.st.PCIeBytesOut += int64(len(pr.words) * 8)
	if v.chk != nil {
		// Only the payload stream crosses PCIe: cached-mode wire size.
		v.chk.HostSent(v, DMACached, len(pr.words))
	}
	chunk := v.par.DMAChunkWords
	if chunk <= 0 {
		chunk = 1024
	}
	for base := 0; base < len(pr.words); base += chunk {
		end := base + chunk
		if end > len(pr.words) {
			end = len(pr.words)
		}
		done := v.dmaIn.Occupy(p, sim.BytesAt((end-base)*8, v.par.DMABW))
		for _, w := range pr.words[base:end] {
			var fl uint32
			if v.attr != nil {
				fl = v.attr.Begin(v.ID, w.Dst, kindForOp(w.Op), issue)
				v.attr.Stamp(fl, attr.StageHostTx, done)
			}
			v.injectAt(done, w, fl)
		}
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

// Pull executes the read and returns a copy of the words.
func (rp *ReadProgram) Pull(p *sim.Proc) []uint64 {
	v := rp.v
	if !rp.staged {
		p.Wait(v.par.DMASetup)
		rp.staged = true
	}
	p.Wait(v.par.PIOLatency)
	v.dmaOut.Occupy(p, sim.BytesAt(rp.n*8, v.par.DMABW))
	v.st.PCIeBytesIn += int64(rp.n * 8)
	if v.chk != nil {
		v.chk.HostRead(v, rp.n)
	}
	out := make([]uint64, rp.n)
	v.mem.readInto(out, rp.addr)
	return out
}
