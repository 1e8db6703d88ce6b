package obs

import (
	"io"

	"repro/internal/sim"
)

// Config enables metrics collection on a cluster run. The zero value (and a
// nil *Config) disables everything: no registry, no sampler, no packet
// spans, no overhead beyond one nil test per instrumentation site.
type Config struct {
	// Every is the virtual-time sampling cadence for the series sampler.
	// Zero means 1µs.
	Every sim.Time

	// PacketSample keeps roughly 1-in-N delivered Data Vortex packets as
	// "packet" spans in the Chrome trace. Zero disables them; 1 keeps every
	// packet. The spans are a projection of the run's attribution flows
	// (attr.Tracer.PacketEvents), thinned by attr's own sampling hash, so a
	// packet span and its flow always agree.
	PacketSample uint64
}

// Metrics is a run's collected observability output: the final instrument
// values, the sampled time series, and the run's event store: the "packet"
// spans projected from the run's flows, then any per-flow stage spans
// (attr.Config.Chrome).
type Metrics struct {
	Registry *Registry
	Series   *Series
	Packets  *Pages[TraceEvent]
}

// WriteJSONL writes the sampled series as JSON lines.
func (m *Metrics) WriteJSONL(w io.Writer) error {
	if m == nil {
		return nil
	}
	return m.Series.WriteJSONL(w)
}

// WritePrometheus dumps the final instrument values in Prometheus text
// format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	return m.Registry.WritePrometheus(w)
}

// WriteChromeTrace writes the event store (packet spans, then any per-flow
// stage spans) as a Perfetto-loadable Chrome trace.
func (m *Metrics) WriteChromeTrace(w io.Writer) error {
	if m == nil {
		return WriteChromeTrace(w, nil)
	}
	return WriteChromeTrace(w, m.Packets)
}
