package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Series is a virtual-time table of sampled values: one named column per
// probe, one row per sampling instant.
type Series struct {
	Cols []string
	Rows []SampleRow
}

// SampleRow is one sampling instant: virtual time and one value per column.
type SampleRow struct {
	T sim.Time
	V []float64
}

// WriteJSONL writes one JSON object per row, fields in column order with a
// leading "t_us" virtual timestamp (microseconds). Rows are written with
// fmt, not encoding/json, so field order — and therefore the bytes — are
// deterministic for golden tests.
func (s *Series) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	var b strings.Builder
	for _, row := range s.Rows {
		b.Reset()
		fmt.Fprintf(&b, "{\"t_us\":%.3f", float64(row.T)/float64(sim.Microsecond))
		for i, c := range s.Cols {
			fmt.Fprintf(&b, ",%q:%s", c, formatFloat(row.V[i]))
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Sampler snapshots a set of probe functions into a Series at a fixed
// virtual-time cadence. It ticks on kernel daemon events (sim.AtDaemon), so
// the sampler itself never keeps a run alive: sampling stops when the last
// piece of real work finishes. Call SampleNow after Kernel.Run for a final
// row carrying the end-of-run totals.
type Sampler struct {
	k       *sim.Kernel
	every   sim.Time
	cols    []string
	probes  []func() float64
	series  Series
	started bool
}

// NewSampler builds a sampler ticking every `every` of virtual time on k.
func NewSampler(k *sim.Kernel, every sim.Time) *Sampler {
	if every <= 0 {
		every = sim.Microsecond
	}
	return &Sampler{k: k, every: every}
}

// Column registers a probe; fn is called at every sampling instant. All
// columns must be registered before Start.
func (s *Sampler) Column(name string, fn func() float64) {
	if s == nil {
		return
	}
	s.cols = append(s.cols, name)
	s.probes = append(s.probes, fn)
}

// Start schedules the first tick at the current virtual time. No-op on a nil
// sampler or when already started.
func (s *Sampler) Start() {
	if s == nil || s.started {
		return
	}
	s.started = true
	s.series.Cols = s.cols
	s.k.AtDaemon(s.k.Now(), s.tick)
}

func (s *Sampler) tick() {
	s.SampleNow()
	s.k.AfterDaemon(s.every, s.tick)
}

// SampleNow takes one sample at the current virtual time. A sample at the
// same instant as the previous row replaces it (probes are cumulative or
// instantaneous, so the later snapshot subsumes the earlier).
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	row := SampleRow{T: s.k.Now(), V: make([]float64, len(s.probes))}
	for i, fn := range s.probes {
		row.V[i] = fn()
	}
	if n := len(s.series.Rows); n > 0 && s.series.Rows[n-1].T == row.T {
		s.series.Rows[n-1] = row
		return
	}
	s.series.Rows = append(s.series.Rows, row)
}

// Series returns the collected series (valid after Kernel.Run; the backing
// slices keep growing until then).
func (s *Sampler) Series() *Series {
	if s == nil {
		return nil
	}
	return &s.series
}
