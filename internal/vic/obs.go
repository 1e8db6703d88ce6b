package vic

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Obs is the VIC-level instrument no Stats field owns, shared by every VIC of
// a cluster (the kernel is single-threaded, so a shared counter needs no
// synchronisation), and the registry each VIC registers its views on. Per-VIC
// depths are read through the FIFODepth and DMABusy accessors instead.
type Obs struct {
	GCDecs *obs.Counter // group-counter decrements executed

	reg *obs.Registry
}

// statsViews are the vic_* metrics a VIC's Stats owns.
var statsViews = []struct {
	name string
	read func(*Stats) int64
}{
	{"vic_pkts_sent_total", func(s *Stats) int64 { return s.PktsSent }},
	{"vic_pkts_received_total", func(s *Stats) int64 { return s.PktsReceived }},
	{"vic_fifo_pkts_total", func(s *Stats) int64 { return s.FIFOPkts }},
	{"vic_fifo_dropped_total", func(s *Stats) int64 { return s.FIFODropped }},
	{"vic_corrupt_dropped_total", func(s *Stats) int64 { return s.CorruptDropped }},
	{"vic_barriers_total", func(s *Stats) int64 { return s.Barriers }},
}

// NewObs registers the VIC metrics on r: the GCDecs instrument, and the names
// the VICs' views sum under, so a run without VICs still reports them as 0
// (nil registry → nil Obs).
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	for _, sv := range statsViews {
		r.Counter(sv.name)
	}
	return &Obs{GCDecs: r.Counter("vic_gc_decs_total"), reg: r}
}

// SetObs attaches the shared instrument to this VIC and registers views of its
// Stats, which the registry sums over every VIC. A nil o attaches nothing.
func (v *VIC) SetObs(o *Obs) {
	if o == nil {
		return
	}
	v.obs = o
	for _, sv := range statsViews {
		o.reg.CounterFunc(sv.name, func() int64 { return sv.read(&v.st) })
	}
}

// FIFODepth returns the surprise-FIFO backlog: words still in VIC SRAM plus
// words drained to the host ring but not yet consumed.
func (v *VIC) FIFODepth() int { return len(v.fifo) + v.hostRing.Len() }

// DMABusy returns the cumulative busy time of both DMA engines.
func (v *VIC) DMABusy() sim.Time { return v.dmaIn.Busy + v.dmaOut.Busy }
