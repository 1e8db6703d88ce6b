// Package obs is the unified observability layer: named counters and
// log-bucketed histograms collected in a Registry, a virtual-time Sampler
// that snapshots instrument values into a Series at a fixed cadence, and
// exporters (Prometheus-style text, JSONL time series, Chrome trace events).
// Records that accumulate one per packet — sampled trace events here, flows
// in obs/attr — are kept in Pages: fixed pages in append order, never
// re-copied.
//
// Every instrument is nil-safe: methods on a nil *Counter / *Histogram are
// no-ops, and a nil *Registry hands out nil instruments. A component
// therefore instruments unconditionally and pays only a pointer test per
// event when observability is disabled — pinned at zero allocations and <5%
// of the switch-core step budget by BenchmarkCoreStepSparse.
//
// The simulation kernel is single-threaded, so instruments need no atomics;
// each parallel bench.Sweep point builds its own kernel and its own Registry.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
)

// Counter is a monotonically increasing int64 instrument.
type Counter struct{ v int64 }

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// HistBuckets is the number of log2 buckets per histogram; bucket i counts
// observations in [2^i, 2^(i+1)), exactly mirroring dvswitch.Stats.LatHist so
// the two paths hold the same counts for the same observations.
const HistBuckets = 40

// Histogram is a log2-bucketed int64 distribution.
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistBuckets]int64
}

// Observe records one value. Values below 1 land in bucket 0, values at or
// above 2^39 in the last bucket. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	b := v
	if b < 1 {
		b = 1
	}
	i := bits.Len64(uint64(b)) - 1
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Bucket returns the count in bucket i (0 when out of range or nil).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i]
}

// Registry holds named instruments. A nil *Registry is valid and hands out
// nil instruments, so callers wire observability with a single variable and
// never branch: `st.obs = reg.Counter("x")` works for reg == nil.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// CounterValue returns the value of a named counter, 0 if absent.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name].Value()
}

// formatFloat renders a float64 the same way everywhere (shortest form that
// round-trips), keeping every exporter byte-deterministic.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus dumps every instrument in Prometheus text exposition
// format, sorted by name within each instrument kind, so the output is
// byte-stable for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, r.counters[n].v); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.hists[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		last := -1
		for i, c := range h.buckets {
			if c > 0 {
				last = i
			}
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += h.buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, int64(1)<<uint(i+1), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.count, n, h.sum, n, h.count); err != nil {
			return err
		}
	}
	return nil
}
