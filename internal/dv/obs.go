package dv

import (
	"repro/internal/obs"
)

// RelObs holds the reliable-delivery layer's instruments no ReliableStats
// field owns, shared by every endpoint of a cluster (the kernel is
// single-threaded), and the registry each endpoint registers its views on.
// The views sum over endpoints, the same view cluster.Report.Reliability
// presents after merging per-endpoint stats.
type RelObs struct {
	Timeouts    *obs.Counter   // ack waits that expired before the counter hit zero
	BackoffWait *obs.Histogram // per-round ack-wait timeout budget, µs

	reg *obs.Registry
}

// relViews are the rel_* metrics an endpoint's ReliableStats owns.
var relViews = []struct {
	name string
	read func(ReliableStats) int64
}{
	{"rel_writes_total", func(s ReliableStats) int64 { return s.Writes }},
	{"rel_retransmits_total", func(s ReliableStats) int64 { return s.Retransmits }},
	{"rel_retry_rounds_total", func(s ReliableStats) int64 { return s.RetryRounds }},
	{"rel_failures_total", func(s ReliableStats) int64 { return s.Failures }},
}

// NewRelObs registers the reliable-layer metrics on r: the two instruments,
// and the names the endpoints' views sum under, so a run without endpoints
// still reports them as 0 (nil registry → nil RelObs).
func NewRelObs(r *obs.Registry) *RelObs {
	if r == nil {
		return nil
	}
	for _, rv := range relViews {
		r.Counter(rv.name)
	}
	return &RelObs{
		Timeouts:    r.Counter("rel_timeouts_total"),
		BackoffWait: r.Histogram("rel_backoff_wait_us"),
		reg:         r,
	}
}

// SetObs attaches the shared instruments to this endpoint and registers views
// of its reliable-layer telemetry. A nil o attaches nothing.
func (e *Endpoint) SetObs(o *RelObs) {
	if o == nil {
		return
	}
	e.obs = o
	for _, rv := range relViews {
		o.reg.CounterFunc(rv.name, func() int64 { return rv.read(e.ReliableTelemetry()) })
	}
}
