package obs

import (
	"io"

	"repro/internal/sim"
)

// Config enables metrics collection on a cluster run. The zero value (and a
// nil *Config) disables everything: no registry, no sampler, no packet
// sampling, no overhead beyond one nil test per instrumentation site.
type Config struct {
	// Every is the virtual-time sampling cadence for the series sampler.
	// Zero means 1µs.
	Every sim.Time

	// PacketSample keeps roughly 1-in-N delivered packets in the Chrome
	// lifecycle trace. Zero disables packet tracing; 1 keeps every packet.
	PacketSample uint64

	// Seed drives the deterministic packet-sampling hash.
	Seed uint64
}

// Metrics is a run's collected observability output: the final instrument
// values, the sampled time series, and the run's event store: the sampled
// packet lifecycles, then any per-flow spans (attr.Config.Chrome). Packets is
// nil when the run recorded no events.
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

// WriteChromeTrace writes the sampled packet lifecycles (plus any phase
// spans) as a Perfetto-loadable Chrome trace.
func (m *Metrics) WriteChromeTrace(w io.Writer) error {
	if m == nil {
		return WriteChromeTrace(w, nil)
	}
	return WriteChromeTrace(w, m.Packets)
}
