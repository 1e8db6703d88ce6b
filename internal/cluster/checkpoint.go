// Budgets and the determinism witness. A managed run pumps the kernel in
// bounded steps instead of one Kernel.Run call: between steps it polls
// wall-clock and virtual-time budgets, so an open-ended run degrades into a
// partial Report and a typed BudgetExceededError, never a hang; and at every
// virtual-time boundary of the configured interval an Audit takes the run's
// witness — the kernel's event digest, its pending queue, its live processes
// and the RNG streams — to compare with another pass of the same
// configuration.
//
// A witness is compared, never restored: goroutine stacks cannot be
// serialized, so a run could only ever be "resumed" by replaying it from t=0,
// which is what re-running the command does.

package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/sim"
)

// Checkpoint configures a managed run: budgets and the boundary grid an
// Audit compares on. The zero interval with budgets set gives a pure
// watchdog. Err is populated by Run; callers keep the pointer.
type Checkpoint struct {
	// Every is the virtual-time interval between boundaries; boundaries sit
	// on multiples of Every. Zero disables them.
	Every sim.Time
	// WallBudget bounds the run's host wall-clock time; zero means none.
	WallBudget time.Duration
	// VirtualBudget bounds the run's virtual time; zero means none.
	VirtualBudget sim.Time
	// Interrupt, when non-nil and closed (e.g. on the first SIGINT), stops
	// the run like an expired wall budget: the current virtual instant
	// completes and Err reports Budget == "interrupt".
	Interrupt <-chan struct{}

	// Err is the run outcome: nil on normal completion, a typed
	// *BudgetExceededError on budget expiry, or the *MismatchError of an
	// Audit pass that left the reference pass's path.
	Err error

	// audit is the Audit pass this run is, nil outside an Audit.
	audit *auditPass
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

// runState is what a managed run reads its witness from; Run assembles it
// after construction.
type runState struct {
	k        *sim.Kernel
	cp       *Checkpoint
	rootRNG  *sim.RNG
	nodeRNGs []*sim.RNG
}

// witness is what a managed run keeps of itself at one boundary. Every
// event of a run is in the digest once it has fired and in the queue until
// then, and every random draw moves a stream, so a second pass that takes
// another path differs from the first at the first boundary after it does.
type witness struct {
	at     sim.Time
	events uint64   // sim.Kernel.Witness: every event fired so far
	queued int      // sim.Kernel.QueueFingerprint: the events pending
	queue  uint64   //   and their (at, seq, daemon) keys
	procs  int      // processes not yet finished
	rngs   []uint64 // the root RNG's state, then each node's
}

func (st *runState) witness(at sim.Time) witness {
	w := witness{at: at, procs: st.k.LiveProcs()}
	w.events, _ = st.k.Witness()
	w.queued, w.queue = st.k.QueueFingerprint()
	w.rngs = make([]uint64, 1+len(st.nodeRNGs))
	w.rngs[0] = st.rootRNG.State()
	for i, r := range st.nodeRNGs {
		w.rngs[i+1] = r.State()
	}
	return w
}

// diff returns nil when got is the witness want is, or a *MismatchError
// naming the first part that differs.
func (want witness) diff(got witness) error {
	mismatch := func(part string, w, g any) error {
		return &MismatchError{Part: part, At: want.at, Want: fmt.Sprint(w), Got: fmt.Sprint(g)}
	}
	if want.at != got.at {
		return mismatch("at", want.at, got.at)
	}
	if len(want.rngs) != len(got.rngs) {
		return mismatch("rng", fmt.Sprintf("%d streams", len(want.rngs)), fmt.Sprintf("%d streams", len(got.rngs)))
	}
	for i, w := range want.rngs {
		if g := got.rngs[i]; g != w {
			stream := "root"
			if i > 0 {
				stream = fmt.Sprintf("node %d", i-1)
			}
			return mismatch("rng", fmt.Sprintf("%s state %#x", stream, w), fmt.Sprintf("%s state %#x", stream, g))
		}
	}
	if want.events != got.events {
		return mismatch("events", fmt.Sprintf("digest %#x", want.events), fmt.Sprintf("digest %#x", got.events))
	}
	if want.queued != got.queued || want.queue != got.queue {
		return mismatch("queue", fmt.Sprintf("%d events (fingerprint %#x)", want.queued, want.queue),
			fmt.Sprintf("%d events (fingerprint %#x)", got.queued, got.queue))
	}
	if want.procs != got.procs {
		return mismatch("procs", want.procs, got.procs)
	}
	return nil
}

// MismatchError is the typed failure of an Audit: the second pass of a
// configuration left the path the first took.
type MismatchError struct {
	// Part names what differs: at a boundary, "rng", "events", "queue" or
	// "procs" (the parts of the witness, checked in that order) or "at";
	// "boundaries" when one pass crossed more boundaries than the other;
	// "results" when the passes' final results differ.
	Part string
	// At is the boundary, as the first pass crossed it; for "results", the
	// virtual time the first pass ended at.
	At   sim.Time
	Want string
	Got  string
	// WantEvent and GotEvent are where the passes part when Part is
	// "events" or "queue": the first event one fired, or held queued at At
	// (then its time is past At), where the other fired or held another.
	// Audit finds them by re-running both passes over the stretch that
	// ends at At. Both are zero when the re-runs agreed; one is when its
	// pass had no event there.
	WantEvent, GotEvent sim.Fired
}

// Error implements error.
func (e *MismatchError) Error() string {
	s := fmt.Sprintf("cluster: %s mismatch at virtual %v: want %s, got %s", e.Part, e.At, e.Want, e.Got)
	if e.WantEvent != e.GotEvent {
		s += fmt.Sprintf("; first event fired or queued differently: want %v, got %v", e.WantEvent, e.GotEvent)
	}
	return s
}

// errRecorded ends a re-run once the stretch it records is complete.
var errRecorded = errors.New("cluster: audit stretch recorded")

// auditPass is one pass of an Audit.
type auditPass struct {
	want []witness // the reference pass's witnesses; nil on the first pass
	got  []witness // this pass's, one per boundary crossed
	end  sim.Time  // the virtual time the pass completed at

	// record is the boundary whose stretch a re-run records into path —
	// the events fired after the boundary before it, then the events queued
	// at it — or -1.
	record int
	path   []sim.Fired
}

// recording reports whether the stretch the pump is about to run is the
// one this pass records.
func (p *auditPass) recording() bool { return p.record == len(p.got) }

// boundary takes the pass's witness at a boundary and, on the second pass,
// compares it with the first's.
func (p *auditPass) boundary(st *runState, at sim.Time) error {
	if p.recording() {
		p.path = append(p.path, st.k.Pending()...)
		return errRecorded
	}
	w := st.witness(at)
	p.got = append(p.got, w)
	switch i := len(p.got) - 1; {
	case p.want == nil || p.record >= 0:
		return nil
	case i == len(p.want):
		return &MismatchError{Part: "boundaries", At: at, Want: fmt.Sprint(len(p.want)), Got: "one more"}
	default:
		return p.want[i].diff(w)
	}
}

// Audit runs one configuration twice under the managed pump, with
// boundaries every `every` of virtual time, and checks that the second pass
// takes the path the first took: the witnesses agree at every boundary, both
// passes cross the same boundaries, and their results are deeply equal. run
// executes the configuration with cp as its Checkpoint and returns the
// result; the caller may set cp's budgets, not its interval.
//
// Audit returns the boundaries the first pass crossed and nil; the first
// error of run or of a pass's Checkpoint; a *ConfigError when every is not
// positive or the first pass crosses no boundary, so that an audit that
// compares nothing cannot pass; or a *MismatchError. When the event digest or
// the queue is what differs, Audit calls run twice more, in the same order,
// to re-run both passes over the stretch before the failing boundary, and
// names the first event that differs there.
func Audit(every sim.Time, run func(cp *Checkpoint) (any, error)) (boundaries []sim.Time, err error) {
	if every <= 0 {
		return nil, &ConfigError{Field: "Checkpoint.Every", Reason: fmt.Sprintf("must be positive for an audit (%v)", every)}
	}
	pass := func(p *auditPass) (any, error) {
		cp := &Checkpoint{Every: every, audit: p}
		res, err := run(cp)
		if err == nil {
			err = cp.Err
		}
		return res, err
	}
	first := &auditPass{record: -1}
	want, err := pass(first)
	for _, w := range first.got {
		boundaries = append(boundaries, w.at)
	}
	if err != nil {
		return boundaries, err
	}
	if len(boundaries) == 0 {
		return nil, &ConfigError{Field: "Checkpoint.Every", Reason: fmt.Sprintf(
			"(%v) puts no boundary inside the run, which ended at %v: the audit would compare nothing", every, first.end)}
	}
	second := &auditPass{want: first.got, record: -1}
	got, err := pass(second)
	switch n := len(second.got); {
	case err != nil:
	case n < len(first.got):
		err = &MismatchError{Part: "boundaries", At: first.got[n].at, Want: fmt.Sprint(len(first.got)), Got: fmt.Sprint(n)}
	case !reflect.DeepEqual(want, got):
		err = &MismatchError{Part: "results", At: first.end, Want: "the first pass's", Got: "others"}
	}
	var me *MismatchError
	if errors.As(err, &me) && (me.Part == "events" || me.Part == "queue") {
		me.WantEvent, me.GotEvent = firstDifference(pass, len(second.got)-1)
	}
	return boundaries, err
}

// firstDifference re-runs both passes of an audit over the stretch that ends
// at boundary i and returns the first event they fired, or held queued at the
// boundary, differently; zero events when the re-runs agree.
func firstDifference(pass func(*auditPass) (any, error), i int) (want, got sim.Fired) {
	a, b := &auditPass{record: i}, &auditPass{record: i}
	pass(a)
	pass(b)
	j := 0
	for j < len(a.path) && j < len(b.path) && a.path[j] == b.path[j] {
		j++
	}
	if j < len(a.path) {
		want = a.path[j]
	}
	if j < len(b.path) {
		got = b.path[j]
	}
	return want, got
}

// runTo pumps user events with timestamps <= limit in bounded batches,
// polling the wall-clock deadline and the interrupt channel between batches;
// with record set it fires one event at a time and appends each to it. It
// returns "" when the limit was reached, or the cut cause ("wall" or
// "interrupt") when the run must stop early.
func (st *runState) runTo(limit sim.Time, deadline time.Time, record *[]sim.Fired) (cut string) {
	batch := 8192
	if record != nil {
		batch = 1
	}
	intr := st.cp.Interrupt
	for {
		if st.k.RunUntilN(limit, batch) == 0 {
			return ""
		}
		if record != nil {
			_, last := st.k.Witness()
			*record = append(*record, last)
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

// runManaged is the stepped pump: boundary-by-boundary RunUntil with the
// audit's witness and the budget watchdog. It returns true when the run is
// partial (budget expiry or an audit mismatch); cp.Err carries the typed
// cause.
func (st *runState) runManaged() (partial bool) {
	cp, k := st.cp, st.k
	start := time.Now()
	var deadline time.Time
	if cp.WallBudget > 0 {
		deadline = start.Add(cp.WallBudget)
	}
	vbudget := cp.VirtualBudget

	at := sim.Time(0)
	for {
		// Choose the next stopping point: the next boundary (fast-forwarded
		// across idle stretches, staying on the Every grid), clamped by the
		// virtual budget.
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

		var record *[]sim.Fired
		if p := cp.audit; p != nil && p.recording() {
			record = &p.path
		}
		if cause := st.runTo(stop, deadline, record); cause != "" {
			// Wall budget expired (or interrupt arrived) mid-stretch: complete
			// the current virtual instant so the cut is a clean event
			// boundary. No witness is taken: a wall-cut instant is not
			// reproducible, so there is nothing to compare it with.
			cut := k.Now()
			k.RunUntil(cut)
			cp.Err = &BudgetExceededError{Budget: cause, At: cut, Wall: time.Since(start)}
			k.Finish()
			return true
		}
		if k.PendingUser() == 0 {
			// Normal completion: same endgame as Kernel.Run.
			if cp.audit != nil {
				cp.audit.end = k.Now()
			}
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
		if boundary && cp.audit != nil {
			if cp.Err = cp.audit.boundary(st, stop); cp.Err != nil {
				k.Finish()
				return true
			}
		}
		at = stop
	}
}
