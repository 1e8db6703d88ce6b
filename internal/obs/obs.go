// Package obs is the unified observability layer: named counters and
// log-bucketed histograms collected in a Registry, a virtual-time Sampler
// that snapshots instrument values into a Series at a fixed cadence, and
// exporters (Prometheus-style text, JSONL time series, Chrome trace events).
// Records that accumulate one per packet — flows in obs/attr, and the trace
// events projected from them at the end of a run — are kept in Pages: fixed
// pages in append order, never re-copied. obs keeps no packet sampler of its
// own: Config.PacketSample selects attr flows, and each kept flow becomes
// one "packet" span (attr.Tracer.PacketEvents).
//
// A metric has one owner. Where a component already counts something in its
// own Stats, it registers a view (Registry.CounterFunc, HistogramFunc): a read
// function the exporters and the sampler call when they read the metric. A
// view costs nothing per event, whether observability is on or off. Only what
// no Stats field counts is an instrument the component bumps itself (Counter,
// Histogram).
//
// Every instrument is nil-safe: methods on a nil *Counter / *Histogram are
// no-ops, and a nil *Registry hands out nil instruments and ignores views. A
// component therefore instruments unconditionally and pays only a pointer test
// per event when observability is disabled; the switch core's clean move loops
// carry no instrument at all, and TestCoreStepZeroAllocWithObsCompiledIn pins
// its step at zero allocations.
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

// Counter is a monotonically increasing int64 instrument. Its value is what
// Inc counted plus the reading of every view registered under its name
// (Registry.CounterFunc).
type Counter struct {
	v     int64
	views []func() int64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := c.v
	for _, fn := range c.views {
		v += fn()
	}
	return v
}

// HistBuckets is the number of log2 buckets per histogram (Log2Bucket).
const HistBuckets = 40

// Log2Bucket returns the bucket an observation v lands in: bucket i holds
// [2^i, 2^(i+1)). Values below 1 land in bucket 0, values at or above 2^39 in
// the last bucket. It is the one bucket rule: Histogram.Observe and every
// owner that keeps its own log2 histogram (dvswitch.Stats.LatHist) call it.
func Log2Bucket(v int64) int {
	if v < 1 {
		v = 1
	}
	return min(bits.Len64(uint64(v))-1, HistBuckets-1)
}

// Histogram is a log2-bucketed int64 distribution: what Observe recorded
// combined with every view registered under its name (Registry.HistogramFunc).
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistBuckets]int64
	views   []func() (count, sum, max int64, buckets *[HistBuckets]int64)
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[Log2Bucket(v)]++
}

// read returns the recorded observations combined with every view's: counts,
// sums and buckets add, the maximum is the largest.
func (h *Histogram) read() Histogram {
	out := Histogram{count: h.count, sum: h.sum, max: h.max, buckets: h.buckets}
	for _, view := range h.views {
		n, s, m, b := view()
		out.count += n
		out.sum += s
		out.max = max(out.max, m)
		for i := range b {
			out.buckets[i] += b[i]
		}
	}
	return out
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

// CounterFunc registers fn as a view under name: every read of the counter
// adds fn's reading, so the views of several owners (switch planes, VICs,
// endpoints) registered under one name sum. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if c := r.Counter(name); c != nil {
		c.views = append(c.views, fn)
	}
}

// HistogramFunc registers fn as a view under name. fn reads a distribution
// its owner keeps: the observation count, their sum and maximum, and the
// counts per Log2Bucket. Every read of the histogram combines it with the
// rest registered there. No-op on a nil registry.
func (r *Registry) HistogramFunc(name string, fn func() (count, sum, max int64, buckets *[HistBuckets]int64)) {
	if h := r.Histogram(name); h != nil {
		h.views = append(h.views, fn)
	}
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
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, r.counters[n].Value()); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.hists[n].read()
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
