package sim

import "fmt"

// gateWaiter is the one process parked on a Gate. A timed wait withdraws it
// at its deadline unless a release has woken it first.
type gateWaiter struct {
	p       *Proc
	g       *Gate  // owning gate, so a pooled timeout event can withdraw w
	timeout *event // WaitTimeout: the deadline event, queued until it fires
	woken   bool   // a release has scheduled the wake-up: the deadline is dead
}

// fireGateWake and fireGateTimeout are the pooled event payloads for gate
// wakeups: scheduling the waiter itself through AtArg/AfterArg avoids one
// heap closure per Signal/WaitTimeout on the wait-heavy paths (host ring
// pops, reliable-delivery completion waits).
func fireGateWake(a any) {
	// A chain that queued p with Await goes on here, as fireChain does for a
	// timed wait; p is switched to once the chain has ended.
	if p := a.(*gateWaiter).p; p.chain == nil || p.stepChain() {
		p.k.resumeProc(p)
	}
}

func fireGateTimeout(a any) {
	w := a.(*gateWaiter)
	if w.woken {
		return // the release won
	}
	w.g.w = nil
	w.p.k.resumeProc(w.p)
}

// Gate is a virtual-time condition variable with one waiter: the one process
// that owns the state it guards (a VIC's host process, an MPI request's
// rank). The process parks on it and Signal releases it; the process re-checks
// its condition on return, as with sync.Cond, or the releaser checks it first
// and signals only once it holds. A second process that parks on a gate
// somebody already waits on panics, naming both.
type Gate struct {
	w *gateWaiter
}

// Wait parks p until Signal releases it.
func (g *Gate) Wait(p *Proc) {
	p.mayBlock()
	g.add(p.waiter())
	p.park()
}

// Await is Wait for a Chain step (see Proc.Chain): it queues p on g as Wait
// does, without parking, and the step must then return a zero wait. The
// chain goes on when a Signal releases p, at the wake event that would have
// resumed it from Wait; a step that goes on only once a condition holds
// re-checks it there and awaits again, as a Wait loop does. Outside a step,
// or twice in one step, it panics.
func (g *Gate) Await(p *Proc) {
	if p.chain == nil || p.gated {
		panic("sim: Gate.Await outside a Chain step, or twice in one step")
	}
	g.add(p.waiter())
	p.gated = true
}

// waiter returns p's own gate waiter, reset for a wait without a timeout.
// Such a wait needs no allocation: it is referenced only from the gate and
// then from its one wake event, and p, parked on it (or its chain, awaiting
// it), runs again only when that event fires — so the previous use is over
// whenever p can ask. A WaitTimeout waiter is not reusable this way: its
// deadline event outlives a release.
func (p *Proc) waiter() *gateWaiter {
	p.gw = gateWaiter{p: p}
	return &p.gw
}

// add makes w the gate's waiter. Only w's own process may replace one, which
// it does only as its deferred calls unwind from a drain that left it here.
func (g *Gate) add(w *gateWaiter) {
	if g.w != nil && g.w.p != w.p {
		panic(fmt.Sprintf("sim: process %q parks on a Gate that process %q waits on; a Gate has one waiter", w.p.name, g.w.p.name))
	}
	g.w = w
}

// WaitTimeout parks p until released or until d elapses. It reports true if
// Signal released the process and false on timeout.
func (g *Gate) WaitTimeout(p *Proc, d Time) bool {
	if d == Forever {
		g.Wait(p)
		return true
	}
	p.mayBlock()
	w := &gateWaiter{p: p, g: g}
	g.add(w)
	w.timeout = p.k.atArg(p.k.now+d, fireGateTimeout, w)
	p.park()
	return w.woken
}

// Signal releases the gate's waiter, if there is one, as a wake event at the
// current time, which preserves deterministic ordering. A WaitTimeout
// deadline still queued for the waiter is dead from here on
// (fireGateTimeout returns at once), so it is demoted to a daemon event: it
// must not keep Run alive until a deadline nobody waits for.
func (g *Gate) Signal(k *Kernel) {
	w := g.w
	if w == nil {
		return
	}
	g.w = nil
	w.woken = true
	if w.timeout != nil {
		w.timeout.daemon = true
		k.nUser--
	}
	k.AtArg(k.now, fireGateWake, w)
}

// Ring is an unbounded FIFO on a power-of-two ring that is retained at its
// high-water capacity, so a FIFO in steady state (the VIC's host-side
// surprise ring, the checker's mirror of it) never allocates: a slice-backed
// FIFO re-allocates its tail every time the head chases it. The zero value
// is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		nb := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head item; ok is false on an empty ring.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero // release references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// Pipe models a serial resource with FCFS occupancy — a PCIe bus, a NIC
// injection port, a switch link. Each transfer occupies the pipe for a
// duration; overlapping requests queue behind each other in virtual time.
type Pipe struct {
	busyUntil Time
	// Busy accumulates total occupied time, for utilisation reporting.
	Busy Time
}

// Reserve books the pipe for d starting no earlier than now, without
// blocking, and returns the completion time.
func (pp *Pipe) Reserve(k *Kernel, d Time) Time { return pp.ReserveAt(k.now, d) }

// ReserveAt books the pipe for d starting no earlier than t (which may be in
// the future), without blocking, and returns the completion time.
func (pp *Pipe) ReserveAt(t Time, d Time) Time {
	start := t
	if pp.busyUntil > start {
		start = pp.busyUntil
	}
	pp.busyUntil = start + d
	pp.Busy += d
	return pp.busyUntil
}

// Occupy books the pipe for d and blocks the process until the transfer
// completes. It returns the completion time.
func (pp *Pipe) Occupy(p *Proc, d Time) Time {
	done := pp.Reserve(p.k, d)
	p.WaitUntil(done)
	return done
}

// BusyUntil returns the time at which the pipe next becomes free.
func (pp *Pipe) BusyUntil() Time { return pp.busyUntil }
