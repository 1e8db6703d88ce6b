// State capture for the observability layer: every metric's value, views
// included, in sorted-name order (the same canonical order the Prometheus
// exporter uses) and the sampler's collected series.

package obs

import (
	"sort"

	"repro/internal/snapshot"
)

// SnapshotTo serialises the registry's instrument values. Nil-safe: a nil
// registry encodes as two empty instrument groups.
func (r *Registry) SnapshotTo(e *snapshot.Encoder) {
	if r == nil {
		e.U32(0)
		e.U32(0)
		return
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.String(n)
		e.I64(r.counters[n].Value())
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		h := r.hists[n].read()
		e.String(n)
		e.I64(h.count)
		e.I64(h.sum)
		e.I64(h.max)
		for _, b := range h.buckets {
			e.I64(b)
		}
	}
}

// SnapshotTo serialises the sampler's collected time series. Nil-safe.
func (s *Sampler) SnapshotTo(e *snapshot.Encoder) {
	if s == nil {
		e.U32(0)
		e.U32(0)
		return
	}
	e.U32(uint32(len(s.series.Cols)))
	for _, c := range s.series.Cols {
		e.String(c)
	}
	e.U32(uint32(len(s.series.Rows)))
	for _, row := range s.series.Rows {
		e.Time(row.T)
		for _, v := range row.V {
			e.F64(v)
		}
	}
}
