package sim

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
)

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq), which makes the simulation deterministic. Exactly one of fn
// and fnArg is set; fnArg carries a caller-pooled payload so hot paths can
// schedule without allocating a capturing closure (see Kernel.AtArg).
// Daemon events (AtDaemon) do not keep the simulation alive: once only
// daemons remain queued, Run stops without firing them.
type event struct {
	at     Time
	seq    uint64
	daemon bool
	fn     func()
	fnArg  func(any)
	arg    any
}

// heapEnt is one heap slot: the event's ordering key cached inline, so sift
// comparisons read the (mostly resident) heap array instead of chasing a
// pointer per compare.
type heapEnt struct {
	at  Time
	seq uint64
	e   *event
}

// entLess orders entries by (at, seq); the pair is unique per event, so the
// order is total and the pop sequence is fully determined — any correct
// queue arrangement yields the same sequence.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is the kernel's event queue: a binary min-heap ordered by entLess.
// The sift loops are hand-rolled (rather than container/heap) because the
// scheduler push/pop pair is the per-event cost floor of every hot path —
// FastModel deliveries, VIC injections, engine pump cycles — and the interface
// dispatch of heap.Interface roughly triples it. The queue stays shallow: a
// component that knows its events far ahead keeps them on a Train and queues
// only the head here (Train has the argument for why nothing moves), so a
// run's depth is O(ports + VICs + processes), not O(words in flight).
type eventHeap []heapEnt

func (h *eventHeap) push(e *event) {
	ent := heapEnt{e.at, e.seq, e}
	s := append(*h, ent)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(ent, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ent
	*h = s
}

func (h *eventHeap) pop() *event {
	s := *h
	if len(s) == 0 {
		panic("sim: pop from empty event queue")
	}
	top := s[0].e
	n := len(s) - 1
	last := s[n]
	s[n] = heapEnt{}
	s = s[:n]
	*h = s
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && entLess(s[r], s[c]) {
				c = r
			}
			if !entLess(s[c], last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	return top
}

// Kernel is the discrete-event scheduler. Pending events wait in one (at, seq)
// binary heap (eventHeap) and fire in that order. A run is single-threaded:
// scheduling calls are not safe for concurrent use, and exactly one simulated
// process (or the kernel itself) runs at any moment.
type Kernel struct {
	now   Time
	seq   uint64
	nUser int // queued non-daemon events; Run stops when this hits zero
	peak  int // most events queued at once (see PeakPending)

	nFired, nResumed uint64 // see Counts

	stream uint64      // every fired event's key, folded (see Stream)
	onFire func(Fired) // the one watcher (see OnFire), nil without one

	q eventHeap

	freeEv []*event // fired events, reused by the next At/AtArg

	procs    []*Proc
	nlive    int
	draining bool
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Counts returns how many events the kernel has fired and how many times it
// has switched to a simulated process (a start counts as one) — the two unit
// counts behind a run's host time. They are deterministic for a given run
// but are simulator cost, not simulated behaviour: a change that fires fewer
// events for the same results moves them and nothing else.
func (k *Kernel) Counts() (events, resumes uint64) { return k.nFired, k.nResumed }

// PeakPending returns the most events the kernel has held queued at once.
// Like Counts it is simulator cost, not simulated behaviour: the heap's
// push/pop price grows with its logarithm, so it is the first number to read
// when host time stops following simulated work.
func (k *Kernel) PeakPending() int { return k.peak }

// newEvent returns a pooled (or fresh) event stamped with time t and the next
// sequence number.
func (k *Kernel) newEvent(t Time) *event {
	k.seq++
	return k.newEventSeq(t, k.seq)
}

// newEventSeq is newEvent under a sequence number the caller already holds.
func (k *Kernel) newEventSeq(t Time, seq uint64) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", t, k.now))
	}
	var e *event
	if n := len(k.freeEv); n > 0 {
		e = k.freeEv[n-1]
		k.freeEv = k.freeEv[:n-1]
	} else {
		e = &event{}
	}
	e.at, e.seq, e.daemon = t, seq, false
	return e
}

// schedule enqueues e.
func (k *Kernel) schedule(e *event) {
	k.q.push(e)
	if n := len(k.q); n > k.peak {
		k.peak = n
	}
}

// At schedules fn to run at absolute time t (>= now).
func (k *Kernel) At(t Time, fn func()) {
	e := k.newEvent(t)
	e.fn = fn
	k.nUser++
	k.schedule(e)
}

// AtDaemon schedules fn at absolute time t like At, but the event does not
// keep the simulation alive: Run (and RunUntil) stop as soon as only daemon
// events remain, discarding them unfired. This is how periodic observers —
// e.g. the obs metrics sampler — tick for exactly as long as real work
// exists, without wedging a run that would otherwise finish.
func (k *Kernel) AtDaemon(t Time, fn func()) {
	e := k.newEvent(t)
	e.fn = fn
	e.daemon = true
	k.schedule(e)
}

// AtArg schedules fn(arg) at absolute time t (>= now). Unlike At, the
// callback and its state travel separately, so a caller that pools its
// payloads (e.g. the VIC's inject batches) schedules without allocating a
// closure per event.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) { k.atArg(t, fn, arg) }

// atArg is AtArg handing back the queued event, for the one caller that may
// have to demote it later (a gate timeout whose waiter is released).
func (k *Kernel) atArg(t Time, fn func(any), arg any) *event {
	e := k.newEvent(t)
	e.fnArg, e.arg = fn, arg
	k.nUser++
	k.schedule(e)
	return e
}

// ReserveSeq consumes the next sequence number without queueing anything and
// returns it for a later AtArgSeq. It is for a component that learns early of
// events that happen late and in an order it can vouch for: it reserves each
// event's number at the point AtArg would have been called, keeps the events
// itself, and queues each one only when its predecessor fires — what a Train
// does, whose comment has the argument for why nothing moves. A number that
// is never armed is not an event: Run, Finish, QueueFingerprint, Stream and
// an OnFire watcher never see it.
func (k *Kernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq
}

// AtArgSeq is AtArg under a sequence number obtained from ReserveSeq. It
// panics on a number that was never reserved, and (like every scheduling call)
// on a time in the past; arming one number twice is the caller's bug and is
// not detected.
func (k *Kernel) AtArgSeq(t Time, seq uint64, fn func(any), arg any) {
	if seq == 0 || seq > k.seq {
		panic(fmt.Sprintf("sim: AtArgSeq with unreserved sequence number %d (last issued %d)", seq, k.seq))
	}
	e := k.newEventSeq(t, seq)
	e.fnArg, e.arg = fn, arg
	k.nUser++
	k.schedule(e)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AfterDaemon schedules a daemon event d from now (see AtDaemon).
func (k *Kernel) AfterDaemon(d Time, fn func()) { k.AtDaemon(k.now+d, fn) }

// AfterArg schedules fn(arg) to run d from now (see AtArg).
func (k *Kernel) AfterArg(d Time, fn func(any), arg any) { k.AtArg(k.now+d, fn, arg) }

// abortSignal is panicked into parked processes during drain so their
// goroutines unwind and exit.
type abortSignal struct{}

// Proc is a simulated process: a goroutine that the kernel resumes one at a
// time. All blocking methods must be called from the process's own goroutine.
type Proc struct {
	k     *Kernel
	name  string // given at Spawn; read by Fired (an OnFire watcher) and Gate's one-waiter panic
	id    uint64 // spawn index: its place in k.procs, which Finish empties (see Stream)
	live  bool
	gated bool // the step running now queued gw on a gate (Gate.Await)

	// The two ends of the process's coroutine (see handoff.go), nil until
	// its start event fires: the kernel calls next to run the process up to
	// its next park and stop to abort it there; the process calls yield to
	// park.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	gw gateWaiter // the process's untimed gate waiter (see Proc.waiter)

	chain Stepper // the Chain running on p, nil otherwise; park refuses while set
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process that will start executing fn at the current
// virtual time (once Run is pumping events).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: uint64(len(k.procs)), live: true}
	k.procs = append(k.procs, p)
	k.nlive++
	k.At(k.now, func() { p.start(fn) })
	return p
}

// Wait advances the process by d of virtual time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	if d == 0 {
		return
	}
	k := p.k
	k.AtArg(k.now+d, fireResume, p)
	p.park()
}

// fireResume is the pooled wake-up payload for Wait: scheduling the
// parked Proc itself through AtArg keeps the single hottest blocking
// primitive in the simulator closure-free (one heap closure per Wait adds
// up to the dominant allocation in traffic-heavy runs).
func fireResume(a any) {
	p := a.(*Proc)
	p.k.resumeProc(p)
}

// Stepper is one stretch of a process that does nothing but compute and wait:
// each Step runs the statements up to the next wait and returns how long that
// wait is, and whether another step follows it (see Proc.Chain). A step may
// wait on a Gate instead: it queues the process with Gate.Await and returns a
// zero wait.
type Stepper interface {
	Step() (wait Time, more bool)
}

// Chain runs s as the loop
//
//	for { wait, more := s.Step(); p.Wait(wait); if !more { break } }
//
// and returns when the last wait ends, but switches to the process only then.
// The first step runs on the process; every later one runs as the kernel
// event that would have resumed it: the same AtArg call, at the same point,
// draws the same (at, seq) key, and the queue holds what it would have held.
// A zero wait continues inline and draws nothing, as Wait(0) does. A step
// that ends with Gate.Await is the loop's g.Wait(p) in place of its Wait: the
// next step runs as the wake event of the release that takes the process off
// g, the event that would have resumed it there. So the simulation cannot
// tell a Chain from the loop; Counts shows one resume where the loop made one
// per nonzero wait and one per gate wake.
//
// A step runs on the kernel goroutine and must never block: while a chain
// runs, any call that would park p panics, and so does a negative wait.
func (p *Proc) Chain(s Stepper) {
	p.mayBlock()
	p.chain = s
	if !p.stepChain() {
		p.suspend()
	}
}

// mayBlock is the check every blocking call makes, through park or Chain: a
// chain's step runs as a kernel event, where parking p would hand the kernel
// goroutine to p's coroutine mid-event.
func (p *Proc) mayBlock() {
	if p.chain != nil {
		panic("sim: blocking call inside a Chain step (a step runs as a kernel event; return the wait instead)")
	}
}

// stepChain runs p's chain from the current instant until a step returns a
// nonzero wait, which it schedules as Wait would: as a fireChain event, or,
// after the last step, as the ordinary resume; or until a step queues p on a
// gate, whose release schedules the wake (fireGateWake). It reports whether
// the chain ended at this instant instead, with nothing pending.
func (p *Proc) stepChain() (done bool) {
	k := p.k
	for {
		d, more := p.chain.Step()
		if d < 0 {
			panic("sim: negative wait")
		}
		if p.gated {
			if d != 0 {
				panic("sim: a Chain step that calls Gate.Await must return a zero wait")
			}
			p.gated = false
			if !more {
				p.chain = nil
			}
			return false
		}
		if !more {
			p.chain = nil
			if d == 0 {
				return true
			}
			k.AtArg(k.now+d, fireResume, p)
			return false
		}
		if d > 0 {
			k.AtArg(k.now+d, fireChain, p)
			return false
		}
	}
}

// fireChain is the event of a chained wait ending: the next step runs here,
// on the kernel goroutine, and the process is switched to only when the
// chain ends at this instant.
func fireChain(a any) {
	p := a.(*Proc)
	if p.stepChain() {
		p.k.resumeProc(p)
	}
}

// WaitUntil blocks the process until absolute time t (no-op if in the past).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.Wait(t - p.k.now)
}

// Run pumps events until no non-daemon events remain, then aborts any
// still-parked processes so their goroutines exit. Daemon events left in the
// queue are discarded unfired. It returns the final virtual time.
func (k *Kernel) Run() Time {
	k.RunUntilN(Forever, math.MaxInt)
	return k.Finish()
}

// RunUntil pumps events up to and including time limit, leaving later events
// queued. Processes stay parked (no drain) so the run can continue. Like Run,
// it stops early once only daemon events remain (leaving them queued).
func (k *Kernel) RunUntil(limit Time) Time {
	k.RunUntilN(limit, math.MaxInt)
	return k.now
}

// RunUntilN is RunUntil with an event budget: it fires at most n events with
// timestamps <= limit and returns how many it fired. A zero return means no
// eligible event remains (the limit is reached, or only daemons survive).
// The checkpoint layer uses it to poll a wall-clock budget between bounded
// batches of work without giving up the deterministic event order. It is the
// kernel's one loop (Run and RunUntil call it): each event is shown to the
// OnFire watcher, folded into Stream and fired.
func (k *Kernel) RunUntilN(limit Time, n int) (fired int) {
	for ; fired < n && k.nUser > 0 && k.q[0].at <= limit; fired++ { // a user event is queued, so q[0] exists
		e := k.q.pop()
		k.now = e.at
		if k.onFire != nil {
			k.onFire(e.fired())
		}
		k.nFired++
		if !e.daemon {
			k.nUser--
		}
		fn, fnArg, arg := e.fn, e.fnArg, e.arg
		k.stream = mix(mix(k.stream, uint64(e.at)), e.seq)
		if p := resumed(arg); p != nil {
			k.stream = mix(k.stream, p.id)
		}
		// Back to the pool before the callback runs, so that it may schedule
		// again without growing the queue's backing store.
		e.fn, e.fnArg, e.arg = nil, nil, nil
		k.freeEv = append(k.freeEv, e)
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
	}
	return fired
}

// Fired is one event as the kernel fires it: its ordering key, the code
// pointer of its handler and, when the event resumes a process (a wait's
// end, a chained step, a gate wake or timeout), that process's name.
type Fired struct {
	At   Time
	Seq  uint64
	PC   uintptr
	Proc string
}

// Handler returns the name of the function the event ran.
func (f Fired) Handler() string { return runtime.FuncForPC(f.PC).Name() }

// String implements fmt.Stringer; the zero Fired, no event, reads "none".
func (f Fired) String() string {
	switch {
	case f == Fired{}:
		return "none"
	case f.Proc != "":
		return fmt.Sprintf("%v seq %d %s (%s)", f.At, f.Seq, f.Handler(), f.Proc)
	default:
		return fmt.Sprintf("%v seq %d %s", f.At, f.Seq, f.Handler())
	}
}

// Stream returns the digest of every event the kernel has fired, in firing
// order: its (at, seq) key and, when it resumes a process, the process's
// spawn index. A run that takes another path moves it at the first event it
// fires differently (later, for another process, or one more). It holds no
// code pointer and no name, so one configuration streams alike in every
// build and the digest may be stored; an OnFire watcher sees the rest.
func (k *Kernel) Stream() uint64 { return k.stream }

// OnFire makes fn the kernel's watcher: every event the kernel fires is
// described to it, as a Fired, just before it fires. nil removes the
// watcher. fn must schedule nothing: the run it watches would change.
func (k *Kernel) OnFire(fn func(Fired)) { k.onFire = fn }

// fired describes e as the OnFire watcher sees it.
func (e *event) fired() Fired {
	h := reflect.ValueOf(e.fnArg)
	if e.fn != nil {
		h = reflect.ValueOf(e.fn)
	}
	f := Fired{At: e.at, Seq: e.seq, PC: h.Pointer()}
	if p := resumed(e.arg); p != nil {
		f.Proc = p.name
	}
	return f
}

// resumed returns the process an event with argument a resumes (a wait's
// end, a chained step, a gate wake or timeout), or nil.
func resumed(a any) *Proc {
	if w, ok := a.(*gateWaiter); ok {
		return w.p
	}
	p, _ := a.(*Proc)
	return p
}

// mix folds v into the digest d.
func mix(d, v uint64) uint64 {
	d = (d ^ v) * 0x9e3779b97f4a7c15
	return d ^ d>>29
}

// PendingUser returns the number of queued non-daemon events: zero means a
// stepped run (RunUntil/RunUntilN) has finished all real work.
func (k *Kernel) PendingUser() int { return k.nUser }

// NextUserEvent returns the timestamp of the earliest queued non-daemon
// event, and whether one exists. The checkpoint layer uses it to fast-forward
// across idle stretches of the boundary grid.
func (k *Kernel) NextUserEvent() (Time, bool) {
	best, found := Time(0), false
	for _, ent := range k.q {
		if !ent.e.daemon && (!found || ent.at < best) {
			best, found = ent.at, true
		}
	}
	return best, found
}

// QueueFingerprint digests the pending event queue — each event's (at, seq,
// daemon) triple in canonical (at, seq) order — plus the queue length.
// Because event sequence numbers are assigned deterministically, the
// fingerprint pins the queue's identity across runs of one configuration.
// The canonical order keeps the heap's arrangement, which depends on the
// order of pushes and pops, out of the digest.
func (k *Kernel) QueueFingerprint() (n int, fp uint64) {
	for _, ent := range k.queued() {
		daemon := uint64(0)
		if ent.e.daemon {
			daemon = 1
		}
		fp = mix(mix(mix(fp, uint64(ent.at)), ent.seq), daemon)
	}
	return len(k.q), fp
}

// Pending returns the queued events in firing order, each described as an
// OnFire watcher will see it fire.
func (k *Kernel) Pending() []Fired {
	evs := k.queued()
	out := make([]Fired, len(evs))
	for i, ent := range evs {
		out[i] = ent.e.fired()
	}
	return out
}

// queued returns a copy of the queue in (at, seq) order.
func (k *Kernel) queued() []heapEnt {
	evs := slices.Clone(k.q)
	slices.SortFunc(evs, func(a, b heapEnt) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return evs
}

// Finish ends a stepped run: any still-queued events (user and daemon alike)
// are discarded unfired and every parked process is aborted so its goroutine
// exits. After Finish the kernel must not be pumped again.
func (k *Kernel) Finish() Time {
	k.discardDaemons()
	k.drain()
	return k.now
}

// discardDaemons empties the queue of the daemon events that survived the
// last non-daemon event, returning them to the pool unfired.
func (k *Kernel) discardDaemons() {
	for len(k.q) > 0 {
		e := k.q.pop()
		if !e.daemon {
			k.nUser--
		}
		e.fn, e.fnArg, e.arg = nil, nil, nil
		k.freeEv = append(k.freeEv, e)
	}
}

// drain force-aborts every parked live process. stop makes the process's
// pending park panic with abortSignal, so the deferred calls of its body run
// and its goroutine ends before stop returns. A process whose start event
// never fired has no goroutine yet and is only retired.
func (k *Kernel) drain() {
	k.draining = true
	for _, p := range k.procs {
		switch {
		case !p.live:
		case p.stop == nil:
			p.live = false
			k.nlive--
		default:
			p.stop()
		}
	}
	k.procs = nil
}

// LiveProcs returns the number of processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.nlive }
