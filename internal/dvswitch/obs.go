package dvswitch

import (
	"fmt"

	"repro/internal/obs"
)

// SwitchObs is the one switch instrument no Stats field owns: deflections per
// cylinder, counted when they happen. Only the cycle-accurate Core can
// attribute a deflection to a cylinder.
type SwitchObs struct {
	DeflectByCyl []obs.Counter
}

// statsViews registers views of st on r: the switch_* metrics a Stats owns.
func statsViews(r *obs.Registry, st *Stats) {
	r.CounterFunc("switch_injected_total", func() int64 { return st.Injected })
	r.CounterFunc("switch_delivered_total", func() int64 { return st.Delivered })
	r.CounterFunc("switch_dropped_total", func() int64 { return st.Dropped })
	r.HistogramFunc("switch_latency_cycles", func() (int64, int64, int64, *[obs.HistBuckets]int64) {
		return st.Delivered, st.TotalLatency, st.MaxLatency, &st.LatHist
	})
}

// SetObs registers the core's metrics on r: views of its Stats, which read
// the core's lifetime totals, and its per-cylinder deflection counters, which
// count from this call, under switch_deflected_cyl<N>_total and, summed,
// switch_deflected_total. A deflection is counted when it happens, so
// switch_deflected_total includes the deflections of packets later dropped or
// still in flight, which Stats.TotalDeflected, summed at ejection, leaves out.
// A nil r attaches nothing.
func (c *Core) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	statsViews(r, &c.stats)
	c.obs = &SwitchObs{DeflectByCyl: make([]obs.Counter, c.p.Cylinders())}
	for cl := range c.obs.DeflectByCyl {
		n := &c.obs.DeflectByCyl[cl]
		r.CounterFunc(fmt.Sprintf("switch_deflected_cyl%d_total", cl), n.Value)
		r.CounterFunc("switch_deflected_total", n.Value)
	}
}

// InFlight returns the number of packets currently inside the fabric.
func (c *Core) InFlight() int { return c.flying }

// QueuedPackets returns the number of packets waiting in injection queues.
func (c *Core) QueuedPackets() int { return c.queued }

// SetObs registers the core's metrics on r (Core.SetObs).
func (e *Engine) SetObs(r *obs.Registry) { e.core.SetObs(r) }

// SetObs registers views of the analytic model's Stats on r, with
// switch_deflected_total reading Stats.TotalDeflected: the model draws a
// packet's deflections when it is injected, without attributing them to a
// cylinder.
func (m *FastModel) SetObs(r *obs.Registry) {
	statsViews(r, &m.st)
	r.CounterFunc("switch_deflected_total", func() int64 { return m.st.TotalDeflected })
}

// Outstanding returns the number of packets injected but not yet delivered
// or dropped — the model's equivalent of Core fabric occupancy.
func (m *FastModel) Outstanding() int64 {
	return m.st.Injected - m.st.Delivered - m.st.Dropped
}
