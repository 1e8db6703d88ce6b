// Budgets and state capture. A managed run pumps the kernel in bounded steps
// instead of one Kernel.Run call: between steps it polls wall-clock and
// virtual-time budgets, so an open-ended run degrades into a partial Report
// and a typed BudgetExceededError, never a hang; and at every virtual-time
// boundary of the configured interval it captures a complete state image
// (internal/snapshot) and hands it to the sink.
//
// Images are for comparing, not for restoring: goroutine stacks cannot be
// serialized, so a run could only ever be "resumed" by replaying it from t=0,
// which is what re-running the command does. snapshot.Audit is the sink's
// product caller — it runs a configuration twice and names the first section
// and instant at which the two differ.

package cluster

import (
	"fmt"
	"time"

	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/vic"
)

// Checkpoint configures a managed run: budgets and periodic state capture.
// The zero interval with budgets set gives a pure watchdog; an interval with
// no budgets gives pure capture. Outcome fields (Err, Taken) are populated by
// Run; callers keep the pointer.
type Checkpoint struct {
	// Every is the virtual-time interval between snapshots; boundaries sit
	// on multiples of Every. Zero disables capture.
	Every sim.Time
	// WallBudget bounds the run's host wall-clock time; zero means none.
	WallBudget time.Duration
	// VirtualBudget bounds the run's virtual time; zero means none.
	VirtualBudget sim.Time
	// Sink receives every captured snapshot. A sink error aborts the run
	// (partial report, Err set); with a nil sink boundaries are counted and
	// nothing is captured.
	Sink func(*snapshot.Snapshot) error
	// Interrupt, when non-nil and closed (e.g. on the first SIGINT), stops
	// the run like an expired wall budget: the current virtual instant
	// completes and Err reports Budget == "interrupt".
	Interrupt <-chan struct{}

	// Err is the run outcome: nil on normal completion, a typed
	// *BudgetExceededError on budget expiry, or the sink's error.
	Err error
	// Taken counts the capture boundaries the run crossed.
	Taken int
}

// BudgetExceededError reports that a managed run hit its wall-clock or
// virtual-time budget. The run stopped at a clean event boundary and
// produced a partial Report — it never hangs and never dies mid-event.
type BudgetExceededError struct {
	// Budget is "wall", "virtual", or "interrupt".
	Budget string
	// At is the virtual time the run was cut at.
	At sim.Time
	// Wall is the host time the run had consumed at expiry.
	Wall time.Duration
}

// Error implements error.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("cluster: %s budget exceeded at virtual %v after %v",
		e.Budget, e.At, e.Wall.Round(time.Millisecond))
}

// runState bundles the wired components a managed run must reach to capture
// snapshots; Run assembles it after construction.
type runState struct {
	k        *sim.Kernel
	cfg      *Config
	rootRNG  *sim.RNG
	nodeRNGs []*sim.RNG
	fabric   dvswitch.Fabric
	vics     []*vic.VIC
	world    *mpi.World
	ends     [][]*dv.Endpoint
	reg      *obs.Registry
	sampler  *obs.Sampler
	tracer   *attr.Tracer
}

// capture builds one complete snapshot of the current simulator state. It is
// pure observation: every component encoder copies, never mutates, so a
// managed run fires exactly the event sequence an unmanaged run would.
func (st *runState) capture(at sim.Time, seq uint64) *snapshot.Snapshot {
	s := &snapshot.Snapshot{Header: snapshot.Header{At: at, Seq: seq}}

	e := snapshot.NewEncoder()
	e.U64(st.rootRNG.State())
	e.U32(uint32(len(st.nodeRNGs)))
	for _, r := range st.nodeRNGs {
		e.U64(r.State())
	}
	s.Add("rng", e.Bytes())

	// A multi-plane fabric snapshots through its wrapper (plane count, then
	// each plane); a single-plane run encodes the engine alone.
	if st.fabric != nil {
		e = snapshot.NewEncoder()
		st.fabric.SnapshotTo(e)
		s.Add("dvswitch", e.Bytes())
	}
	if st.vics != nil {
		e = snapshot.NewEncoder()
		for _, v := range st.vics {
			v.SnapshotTo(e)
		}
		s.Add("vic", e.Bytes())
	}
	if st.ends != nil {
		e = snapshot.NewEncoder()
		for _, rails := range st.ends {
			e.U32(uint32(len(rails)))
			for _, ep := range rails {
				ep.SnapshotTo(e)
			}
		}
		s.Add("dv", e.Bytes())
	}
	if st.world != nil {
		e = snapshot.NewEncoder()
		st.world.F.SnapshotTo(e)
		st.world.SnapshotTo(e)
		s.Add("ib", e.Bytes())
	}
	if st.cfg.Obs != nil {
		e = snapshot.NewEncoder()
		st.reg.SnapshotTo(e)
		st.sampler.SnapshotTo(e)
		s.Add("obs", e.Bytes())
	}
	if st.tracer != nil {
		e = snapshot.NewEncoder()
		st.tracer.SnapshotTo(e)
		s.Add("attr", e.Bytes())
	}
	// The event queue goes last: nearly every divergence reaches it, and a
	// comparison names the first section that differs, which should be the
	// component that diverged whenever one did.
	e = snapshot.NewEncoder()
	e.Time(st.k.Now())
	n, fp := st.k.QueueFingerprint()
	e.Int(n)
	e.U64(fp)
	e.Int(st.k.LiveProcs())
	s.Add("kernel", e.Bytes())
	return s
}

// runTo pumps user events with timestamps <= limit in bounded batches,
// polling the wall-clock deadline and the interrupt channel between batches.
// It returns "" when the limit was reached, or the cut cause ("wall" or
// "interrupt") when the run must stop early.
func (st *runState) runTo(limit sim.Time, deadline time.Time) (cut string) {
	const batch = 8192
	intr := st.cfg.Checkpoint.Interrupt
	for {
		if st.k.RunUntilN(limit, batch) == 0 {
			return ""
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return "wall"
		}
		if intr != nil {
			select {
			case <-intr:
				return "interrupt"
			default:
			}
		}
	}
}

// runManaged is the stepped pump: boundary-by-boundary RunUntil with state
// capture and the budget watchdog. It returns true when the run is partial
// (budget expiry or sink failure); cp.Err carries the typed cause.
func (st *runState) runManaged() (partial bool) {
	cp := st.cfg.Checkpoint
	k := st.k
	start := time.Now()
	var deadline time.Time
	if cp.WallBudget > 0 {
		deadline = start.Add(cp.WallBudget)
	}
	vbudget := cp.VirtualBudget

	at := sim.Time(0)
	for {
		// Choose the next stopping point: the next capture boundary
		// (fast-forwarded across idle stretches, staying on the Every grid),
		// clamped by the virtual budget.
		stop := sim.Forever
		boundary := false
		if cp.Every > 0 {
			next := (at/cp.Every + 1) * cp.Every
			if t, ok := k.NextUserEvent(); ok && t > next {
				next = ((t + cp.Every - 1) / cp.Every) * cp.Every
			}
			stop = next
			boundary = true
		}
		if vbudget > 0 && stop > vbudget {
			stop = vbudget
			boundary = false
		}

		if cause := st.runTo(stop, deadline); cause != "" {
			// Wall budget expired (or interrupt arrived) mid-stretch: complete
			// the current virtual instant so the cut is a clean event
			// boundary. No image is captured: a wall-cut instant is not
			// reproducible, so there is nothing to compare it with.
			cut := k.Now()
			k.RunUntil(cut)
			cp.Err = &BudgetExceededError{Budget: cause, At: cut, Wall: time.Since(start)}
			k.Finish()
			return true
		}
		if k.PendingUser() == 0 {
			// Normal completion: same endgame as Kernel.Run.
			k.Finish()
			return false
		}
		if vbudget > 0 && stop == vbudget {
			if t, ok := k.NextUserEvent(); !ok || t > vbudget {
				cp.Err = &BudgetExceededError{Budget: "virtual", At: vbudget, Wall: time.Since(start)}
				k.Finish()
				return true
			}
		}
		if boundary {
			if cp.Sink != nil {
				if cp.Err = cp.Sink(st.capture(stop, uint64(cp.Taken))); cp.Err != nil {
					k.Finish()
					return true
				}
			}
			cp.Taken++
		}
		at = stop
	}
}
