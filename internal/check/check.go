// Package check is the opt-in invariant layer. It hooks the observation
// seams the lower layers already expose — dvswitch.Core.OnCycleEnd and the
// DropHooks, vic.Checker, dv.Checker, and the cluster's inject/deliver
// wrappers — and continuously verifies the properties the paper's claims
// rest on: bufferless deflection routing conserves packets and never
// duplicates or livelocks them (§II), group counters conserve and the
// surprise FIFO preserves order (§III), and the reliable layer delivers
// exactly once with monotone sequencing under injected faults.
//
// Checking is pure observation: no hook blocks, advances virtual time, or
// consumes randomness, so enabling a Checker provably cannot change a
// simulation's results — only report on them. Everything compiles and runs
// with checking off at the cost of one nil test per seam.
package check

import (
	"fmt"
	"strings"

	"repro/internal/obs/attr"
)

// Config selects which invariant families a Checker enforces. The zero value
// checks nothing; All enables everything. The livelock and deflection bounds
// are derived from the switch geometry.
type Config struct {
	// Switch enables the per-cycle fabric invariants: packet conservation,
	// occupancy/duplication, resolved-prefix, bounded deflections, and
	// livelock detection, plus the inject/deliver boundary accounting.
	Switch bool
	// VIC enables the VIC invariants: non-negative group counters, FIFO
	// ordering, and PCIe byte conservation.
	VIC bool
	// Reliable enables the reliable-layer invariants: exactly-once delivery
	// and monotone chunk sequence numbers.
	Reliable bool
	// Attr enables the attribution invariant: every completed traced flow's
	// per-stage durations are non-negative and sum exactly to its
	// end-to-end latency (checked at Finalize over the attached tracer).
	Attr bool
}

// keptViolations is how many violations a Result keeps in full detail; the
// total is always counted.
const keptViolations = 64

// All returns a Config with every invariant family enabled.
func All() *Config { return &Config{Switch: true, VIC: true, Reliable: true, Attr: true} }

// Violation is one detected invariant breach.
type Violation struct {
	// Layer is the subsystem ("switch", "vic", "reliable").
	Layer string
	// Invariant names the property ("conservation", "duplication", ...).
	Invariant string
	// Cycle is the switch cycle at detection time (-1 when not tied to a
	// fabric cycle).
	Cycle int64
	// Msg describes the breach.
	Msg string
}

// String formats the violation for logs.
func (v Violation) String() string {
	if v.Cycle >= 0 {
		return fmt.Sprintf("%s/%s @cycle %d: %s", v.Layer, v.Invariant, v.Cycle, v.Msg)
	}
	return fmt.Sprintf("%s/%s: %s", v.Layer, v.Invariant, v.Msg)
}

// Result summarises a Checker's run.
type Result struct {
	// Violations holds the first keptViolations breaches in detection order.
	Violations []Violation
	// Total counts every breach, including those past the retention cap.
	Total int64
	// CyclesChecked counts fabric cycles swept by the switch invariants.
	CyclesChecked int64
	// PacketsTracked counts packets accounted at the fabric boundary.
	PacketsTracked int64
	// ChunksChecked counts reliable chunks verified for exactly-once
	// delivery.
	ChunksChecked int64
	// FlowsChecked counts completed attribution flows whose stage sums were
	// verified against end-to-end latency.
	FlowsChecked int64
}

// Ok reports whether no invariant was violated.
func (r *Result) Ok() bool { return r == nil || r.Total == 0 }

// Err returns nil when Ok, else an error summarising the violations.
func (r *Result) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", r.Total, r.Violations[0])
}

// String renders a short human-readable summary.
func (r *Result) String() string {
	if r == nil {
		return "check: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d violation(s), %d cycles, %d packets, %d chunks",
		r.Total, r.CyclesChecked, r.PacketsTracked, r.ChunksChecked)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Checker accumulates invariant state for one cluster run. It implements
// vic.Checker and dv.Checker and attaches to switch cores and fabric
// boundaries; install it everywhere traffic flows, then call Finalize once
// the simulation is idle.
//
// A Checker is not safe for concurrent use; the simulation kernel is
// single-threaded, and so is the checker.
type Checker struct {
	cfg Config
	res Result

	// inFab is the fabric-boundary multiset: +1 per injection, -1 per
	// delivery or accounted drop. Negative means duplication; positive
	// residue at Finalize means silent loss.
	inFab map[fabKey]int

	vics    map[vicID]*vicState
	seqs    map[endpointKey]uint64
	resolve map[endpointID]resolver

	// attrTracer is the attribution tracer under verification (AttachAttr);
	// nil when attribution is off or the family is disabled.
	attrTracer *attr.Tracer

	finalized bool
}

// New builds a Checker for the given configuration. cfg must not be nil.
func New(cfg *Config) *Checker {
	c := &Checker{cfg: *cfg}
	if c.cfg.Switch {
		c.inFab = make(map[fabKey]int)
	}
	if c.cfg.VIC || c.cfg.Reliable {
		c.vics = make(map[vicID]*vicState)
	}
	if c.cfg.Reliable {
		c.seqs = make(map[endpointKey]uint64)
		c.resolve = make(map[endpointID]resolver)
	}
	return c
}

// violate records one breach.
func (c *Checker) violate(layer, invariant string, cycle int64, format string, args ...any) {
	c.res.Total++
	if len(c.res.Violations) < keptViolations {
		c.res.Violations = append(c.res.Violations, Violation{
			Layer: layer, Invariant: invariant, Cycle: cycle,
			Msg: fmt.Sprintf(format, args...),
		})
	}
}

// Finalize runs the end-of-run checks (fabric-boundary residue, PCIe byte
// conservation) and returns the result. Call it only once the simulation
// kernel is idle — packets still in flight would be reported as lost.
func (c *Checker) Finalize() *Result {
	if !c.finalized {
		c.finalized = true
		c.finalizeFabric()
		c.finalizeVICs()
		c.finalizeAttr()
	}
	return &c.res
}
