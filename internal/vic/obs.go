package vic

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Obs bundles the VIC-level observability instruments. One Obs is shared by
// every VIC of a cluster (the kernel is single-threaded, so shared counters
// need no synchronisation); per-VIC depths are read through the FIFODepth
// and DMABusy accessors instead.
type Obs struct {
	PktsSent       *obs.Counter
	PktsReceived   *obs.Counter
	FIFOPkts       *obs.Counter
	FIFODropped    *obs.Counter
	CorruptDropped *obs.Counter
	Barriers       *obs.Counter
	GCDecs         *obs.Counter // group-counter decrements executed
}

// NewObs registers the VIC instruments on r (nil registry → nil Obs).
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		PktsSent:       r.Counter("vic_pkts_sent_total"),
		PktsReceived:   r.Counter("vic_pkts_received_total"),
		FIFOPkts:       r.Counter("vic_fifo_pkts_total"),
		FIFODropped:    r.Counter("vic_fifo_dropped_total"),
		CorruptDropped: r.Counter("vic_corrupt_dropped_total"),
		Barriers:       r.Counter("vic_barriers_total"),
		GCDecs:         r.Counter("vic_gc_decs_total"),
	}
}

// SetObs attaches shared instruments to this VIC (nil detaches).
func (v *VIC) SetObs(o *Obs) { v.obs = o }

// FIFODepth returns the surprise-FIFO backlog: words still in VIC SRAM plus
// words drained to the host ring but not yet consumed.
func (v *VIC) FIFODepth() int { return len(v.fifo) + v.hostFIFO.Len() }

// DMABusy returns the cumulative busy time of both DMA engines.
func (v *VIC) DMABusy() sim.Time { return v.dmaIn.Busy + v.dmaOut.Busy }
