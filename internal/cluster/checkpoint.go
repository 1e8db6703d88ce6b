// Checkpoint/restore and the run watchdog. A managed run pumps the kernel in
// bounded steps instead of one Kernel.Run call: at every virtual-time
// boundary of the configured interval it captures a complete state snapshot
// (internal/snapshot) and hands it to the sink, and between boundaries it
// polls wall-clock and virtual-time budgets so an open-ended run degrades
// into a final checkpoint plus a partial Report — a typed BudgetExceededError,
// never a hang.
//
// Restore is replay-verify: goroutine stacks cannot be serialized, so a
// resumed run deterministically replays from t=0 to the snapshot's capture
// time, re-captures every section, and requires byte-identity with the
// stored image before continuing. Determinism is the mechanism that restores
// the state; the snapshot is the proof that it restored faithfully.

package cluster

import (
	"fmt"
	"hash/fnv"
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

// Checkpoint configures a managed run: periodic snapshots, budgets, and an
// optional restore point. The zero interval with budgets set gives a pure
// watchdog; an interval with no budgets gives pure checkpointing. Outcome
// fields (Err, Taken, LastAt) are populated by Run; callers keep the pointer.
type Checkpoint struct {
	// App and Net identify the run in snapshot headers and are validated on
	// resume. apprt.Execute fills Net from the spec when empty.
	App string
	Net string
	// Every is the virtual-time interval between snapshots; boundaries sit
	// on multiples of Every. Zero disables periodic capture (budget-expiry
	// checkpoints are still written).
	Every sim.Time
	// WallBudget bounds the run's host wall-clock time; zero means none.
	WallBudget time.Duration
	// VirtualBudget bounds the run's virtual time; zero means none.
	VirtualBudget sim.Time
	// Sink receives every captured snapshot. A sink error aborts the run
	// (partial report, Err set); a nil sink discards snapshots, which still
	// exercises capture and keeps budget-expiry semantics.
	Sink func(*snapshot.Snapshot) error
	// Resume, when non-nil, replays the run to Resume.Header.At, verifies
	// the replayed state is byte-identical to the snapshot section by
	// section, and continues from there on the same boundary grid.
	Resume *snapshot.Snapshot
	// Interrupt, when non-nil and closed (e.g. on the first SIGINT), stops
	// the run like an expired wall budget: the current virtual instant
	// completes, a final checkpoint is written, and Err reports
	// Budget == "interrupt".
	Interrupt <-chan struct{}

	// Err is the run outcome: nil on normal completion, a typed
	// *BudgetExceededError on budget expiry, a *snapshot.MismatchError when
	// a resume fails validation, or the sink's error when writing failed.
	Err error
	// Taken counts the periodic snapshots captured (not the budget-expiry
	// final one).
	Taken int
	// LastAt is the capture time of the most recent snapshot.
	LastAt sim.Time
}

// BudgetExceededError reports that a managed run hit its wall-clock or
// virtual-time budget. The run stopped at a clean event boundary, wrote a
// final checkpoint (when a sink was configured), and produced a partial
// Report — it never hangs and never dies mid-event.
type BudgetExceededError struct {
	// Budget is "wall", "virtual", or "interrupt".
	Budget string
	// At is the virtual time of the final checkpoint.
	At sim.Time
	// Wall is the host time the run had consumed at expiry.
	Wall time.Duration
}

// Error implements error.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("cluster: %s budget exceeded at virtual %v after %v",
		e.Budget, e.At, e.Wall.Round(time.Millisecond))
}

// configDigest fingerprints every configuration field that shapes state
// evolution. Faults are excluded (they have their own canonical header
// field); Trace is excluded (pure observation with no captured state);
// Obs/Check participate because they change which sections exist and which
// instruments accumulate.
func configDigest(cfg *Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d seed=%d stacks=%d rails=%d cycle=%t dense=%t scalar=%t geom=%+v ct=%d",
		cfg.Nodes, cfg.Seed, cfg.Stacks, cfg.VICsPerNode, cfg.CycleAccurate,
		cfg.denseSwitch, cfg.scalarBoundary, cfg.SwitchGeom, cfg.CycleTime)
	// Plane count is normalised (0 and 1 run identically); policy only
	// shapes state when more than one plane exists.
	if planes := cfg.DVPlanes; planes > 1 {
		fmt.Fprintf(h, " planes=%d policy=%d", planes, cfg.PlanePolicy)
	}
	fmt.Fprintf(h, " vic=%+v ib=%+v mpi=%+v cpu=%+v", cfg.VIC, cfg.IB, cfg.MPI, cfg.CPU)
	fmt.Fprintf(h, " check=%t", cfg.Check != nil)
	if cfg.Obs != nil {
		fmt.Fprintf(h, " obs=%+v", *cfg.Obs)
	}
	if cfg.Attr != nil {
		fmt.Fprintf(h, " attr=%+v", *cfg.Attr)
	}
	return h.Sum64()
}

func faultsText(cfg *Config) string {
	if cfg.Faults == nil {
		return ""
	}
	return cfg.Faults.String()
}

// runState bundles the wired components a managed run must reach to capture
// snapshots; Run assembles it after construction.
type runState struct {
	k        *sim.Kernel
	cfg      *Config
	rootRNG  *sim.RNG
	nodeRNGs []*sim.RNG
	engs     []*dvswitch.Engine
	fms      []*dvswitch.FastModel
	mp       *dvswitch.MultiPlane
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
	cp := st.cfg.Checkpoint
	s := &snapshot.Snapshot{Header: snapshot.Header{
		App:          cp.App,
		Net:          cp.Net,
		Seed:         st.cfg.Seed,
		Nodes:        st.cfg.Nodes,
		ConfigDigest: configDigest(st.cfg),
		Faults:       faultsText(st.cfg),
		At:           at,
		Every:        cp.Every,
		Seq:          seq,
	}}

	e := snapshot.NewEncoder()
	e.Time(st.k.Now())
	n, fp := st.k.QueueFingerprint()
	e.Int(n)
	e.U64(fp)
	e.Int(st.k.LiveProcs())
	s.Add("kernel", e.Bytes())

	e = snapshot.NewEncoder()
	e.U64(st.rootRNG.State())
	e.U32(uint32(len(st.nodeRNGs)))
	for _, r := range st.nodeRNGs {
		e.U64(r.State())
	}
	s.Add("rng", e.Bytes())

	// Multi-plane fabrics snapshot through the wrapper (plane count, policy
	// state, then each plane); single-plane runs keep the engines' original
	// byte encodings so pre-multi-plane snapshots stay comparable.
	if st.mp != nil {
		e = snapshot.NewEncoder()
		st.mp.SnapshotTo(e)
		s.Add("dvswitch", e.Bytes())
	} else if len(st.engs) > 0 {
		e = snapshot.NewEncoder()
		st.engs[0].SnapshotTo(e)
		s.Add("dvswitch", e.Bytes())
	} else if len(st.fms) > 0 {
		e = snapshot.NewEncoder()
		st.fms[0].SnapshotTo(e)
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
	return s
}

// validateResume checks a restore point's identity against this run before
// any replay work happens.
func (st *runState) validateResume(r *snapshot.Snapshot) error {
	cp := st.cfg.Checkpoint
	h := r.Header
	switch {
	case h.App != cp.App:
		return &snapshot.MismatchError{Field: "app", Want: h.App, Got: cp.App}
	case h.Net != cp.Net:
		return &snapshot.MismatchError{Field: "net", Want: h.Net, Got: cp.Net}
	case h.Seed != st.cfg.Seed:
		return &snapshot.MismatchError{Field: "seed",
			Want: fmt.Sprint(h.Seed), Got: fmt.Sprint(st.cfg.Seed)}
	case h.Nodes != st.cfg.Nodes:
		return &snapshot.MismatchError{Field: "nodes",
			Want: fmt.Sprint(h.Nodes), Got: fmt.Sprint(st.cfg.Nodes)}
	case h.ConfigDigest != configDigest(st.cfg):
		return &snapshot.MismatchError{Field: "config",
			Want: fmt.Sprintf("%#x", h.ConfigDigest), Got: fmt.Sprintf("%#x", configDigest(st.cfg))}
	case h.Faults != faultsText(st.cfg):
		return &snapshot.MismatchError{Field: "faults",
			Want: h.Faults, Got: faultsText(st.cfg)}
	}
	return nil
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

// sink hands a snapshot to the configured sink, recording bookkeeping.
func (st *runState) sink(s *snapshot.Snapshot, final bool) error {
	cp := st.cfg.Checkpoint
	cp.LastAt = s.Header.At
	if !final {
		cp.Taken++
	}
	if cp.Sink == nil {
		return nil
	}
	return cp.Sink(s)
}

// runManaged is the stepped pump: boundary-by-boundary RunUntil with
// checkpoint capture, budget watchdog, and optional replay-verified resume.
// It returns true when the run is partial (budget expiry, resume failure, or
// sink failure); cp.Err carries the typed cause.
func (st *runState) runManaged() (partial bool) {
	cp := st.cfg.Checkpoint
	k := st.k
	start := time.Now()
	var deadline time.Time
	if cp.WallBudget > 0 {
		deadline = start.Add(cp.WallBudget)
	}
	vbudget := cp.VirtualBudget
	if vbudget < 0 {
		vbudget = 0
	}

	at := sim.Time(0)
	seq := uint64(0)

	if r := cp.Resume; r != nil {
		if err := st.validateResume(r); err != nil {
			cp.Err = err
			k.Finish()
			return true
		}
		// Resume continues on the producing run's boundary grid.
		if r.Header.Every > 0 {
			cp.Every = r.Header.Every
		}
		if cause := st.runTo(r.Header.At, deadline); cause != "" {
			// Cut during replay: the restore point has not been verified yet,
			// so no checkpoint is written (it could overwrite a good one with
			// diverged state).
			cp.Err = &BudgetExceededError{Budget: cause, At: k.Now(), Wall: time.Since(start)}
			k.Finish()
			return true
		}
		got := st.capture(r.Header.At, r.Header.Seq)
		if err := snapshot.Diff(r, got); err != nil {
			cp.Err = err
			k.Finish()
			return true
		}
		at = r.Header.At
		seq = r.Header.Seq + 1
	}

	for {
		// Choose the next stopping point: the next checkpoint boundary
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
			// the current virtual instant so the cut is a clean, replayable
			// event boundary.
			cut := k.Now()
			k.RunUntil(cut)
			err := st.sink(st.capture(cut, seq), true)
			cp.Err = &BudgetExceededError{Budget: cause, At: cut, Wall: time.Since(start)}
			if err != nil {
				cp.Err = err
			}
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
				err := st.sink(st.capture(vbudget, seq), true)
				cp.Err = &BudgetExceededError{Budget: "virtual", At: vbudget, Wall: time.Since(start)}
				if err != nil {
					cp.Err = err
				}
				k.Finish()
				return true
			}
		}
		if boundary {
			if err := st.sink(st.capture(stop, seq), false); err != nil {
				cp.Err = err
				k.Finish()
				return true
			}
			seq++
		}
		at = stop
	}
}
