// The attribution invariant: stage decompositions must account for latency
// exactly. Every stamp the attr tracer takes closes the previous stage at
// the same monotone clock, so for a completed flow the per-stage durations
// telescope to End-Issue — unless a stamp was dropped, double-counted, or
// taken out of order. The planted attr mutations (MutDoubleFabric,
// MutSkipDrain) break the sum in both directions and are used to validate
// that this check actually detects broken stamping.

package check

import (
	"repro/internal/obs/attr"
)

// AttachAttr registers the attribution tracer for end-of-run verification.
// No-op when the Attr family is disabled or the tracer is nil.
func (c *Checker) AttachAttr(t *attr.Tracer) {
	if !c.cfg.Attr || t == nil {
		return
	}
	c.attrTracer = t
}

// finalizeAttr verifies, for every completed flow, that each stage duration
// is non-negative and that the stage sum equals end-to-end latency exactly.
func (c *Checker) finalizeAttr() {
	t := c.attrTracer
	if t == nil {
		return
	}
	for i, n := 0, t.Len(); i < n; i++ {
		f := t.At(i)
		if !f.Done {
			continue
		}
		c.res.FlowsChecked++
		var sum int64
		for s := 0; s < attr.NumStages; s++ {
			d := int64(f.Dur[s])
			if d < 0 {
				c.violate("attr", "nonnegative-stage", -1,
					"flow %d (%s %d->%d): stage %s is negative (%d ps)",
					f.ID, f.Kind.Name(), f.Src, f.Dst, attr.Stage(s).Name(), d)
			}
			sum += d
		}
		if e2e := int64(f.E2E()); sum != e2e {
			c.violate("attr", "stage-sum", -1,
				"flow %d (%s %d->%d): stage sum %d ps != end-to-end %d ps",
				f.ID, f.Kind.Name(), f.Src, f.Dst, sum, e2e)
		}
	}
}
