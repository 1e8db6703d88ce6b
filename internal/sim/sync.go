package sim

import (
	"fmt"
	"slices"
)

// gateWaiter tracks one parked process on a Gate, with cancellation support
// so timeouts can withdraw a waiter without racing its wakeup.
type gateWaiter struct {
	p       *Proc
	g       *Gate       // owning gate, so a pooled timeout event can withdraw w
	ready   func() bool // WaitUntil: releases pass over w while this is false
	timeout *event      // WaitTimeout: the deadline event, queued until it fires
	woken   bool        // a wake event has been scheduled for this waiter
	fired   bool        // set by whichever of wake/timeout wins
	timed   bool        // true if the waiter timed out
}

// fireGateWake and fireGateTimeout are the pooled event payloads for gate
// wakeups: scheduling the waiter itself through AtArg/AfterArg avoids one
// heap closure per Signal/Broadcast/WaitTimeout on the wait-heavy paths
// (queue pops, reliable-delivery completion waits).
func fireGateWake(a any) {
	w := a.(*gateWaiter)
	if w.fired {
		return
	}
	w.fired = true
	// A chain that queued p with Await goes on here, as fireChain does for a
	// timed wait; p is switched to once the chain has ended.
	if p := w.p; p.chain == nil || p.stepChain() {
		p.k.resumeProc(p)
	}
}

func fireGateTimeout(a any) {
	w := a.(*gateWaiter)
	if w.fired || w.woken {
		return // signal already won
	}
	w.fired = true
	w.timed = true
	w.g.remove(w)
	w.p.k.resumeProc(w.p)
}

// Gate is a virtual-time condition variable. Processes park on it and are
// released by Signal/Broadcast in FIFO order. Who re-checks the predicate
// depends on how the process parked: after Wait or WaitTimeout the caller
// does, as with sync.Cond — every release resumes it; with WaitUntil the gate
// does, at the release, and a process whose predicate is still false is not
// resumed at all.
type Gate struct {
	waiters []*gateWaiter
}

// Wait parks p until Signal or Broadcast releases it.
func (g *Gate) Wait(p *Proc) {
	g.waiters = append(g.waiters, p.waiter(nil))
	p.park()
}

// Await is Wait for a Chain step (see Proc.Chain): it queues p on g as Wait
// does, without parking, and the step must then return a zero wait. The
// chain goes on when a Signal or Broadcast releases p, at the wake event
// that would have resumed it from Wait; a step that goes on only once a
// condition holds re-checks it there and awaits again, as a Wait loop does.
// Outside a step, or twice in one step, it panics.
func (g *Gate) Await(p *Proc) {
	if p.chain == nil || p.gated {
		panic("sim: Gate.Await outside a Chain step, or twice in one step")
	}
	g.waiters = append(g.waiters, p.waiter(nil))
	p.gated = true
}

// waiter returns p's own gate waiter, reset for a wait without a timeout.
// Such a wait needs no allocation: it is referenced only from the gate's
// queue and then from its one wake event, and p, parked on it (or its chain,
// awaiting it), runs again only when that event fires — so the previous use
// is over whenever p can ask. A WaitTimeout waiter is not reusable this way:
// its deadline event outlives a release.
func (p *Proc) waiter(ready func() bool) *gateWaiter {
	p.gw = gateWaiter{p: p, ready: ready}
	return &p.gw
}

// WaitUntil parks p until a Signal or Broadcast finds ready() true, and
// returns at once if it already is. A release that finds it false leaves p
// queued where it stands and schedules nothing for it, so a counter that
// broadcasts on every change costs its waiter one resume, not one per
// change. ready runs inside the releasing event and must only read state.
// It holds on return: the wake-up is an event at the release instant, and
// should something undo the condition in between, p parks again at the tail
// as a Wait loop would have.
func (g *Gate) WaitUntil(p *Proc, ready func() bool) {
	for !ready() {
		g.waiters = append(g.waiters, p.waiter(ready))
		p.park()
	}
}

// WaitTimeout parks p until released or until d elapses. It reports true if
// the process was released by Signal/Broadcast and false on timeout.
func (g *Gate) WaitTimeout(p *Proc, d Time) bool {
	if d == Forever {
		g.Wait(p)
		return true
	}
	w := &gateWaiter{p: p, g: g}
	g.waiters = append(g.waiters, w)
	w.timeout = p.k.atArg(p.k.now+d, fireGateTimeout, w)
	p.park()
	return !w.timed
}

// removeAt takes the waiter at index i out of the queue, keeping the order of
// the rest and the backing array.
func (g *Gate) removeAt(i int) { g.waiters = slices.Delete(g.waiters, i, i+1) }

func (g *Gate) remove(w *gateWaiter) {
	if i := slices.Index(g.waiters, w); i >= 0 {
		g.removeAt(i)
	}
}

// blocked reports whether a release must pass over w.
func (w *gateWaiter) blocked() bool { return w.ready != nil && !w.ready() }

// release schedules the wake-up of a waiter just taken off the queue, as an
// event at the current time, which preserves deterministic ordering. A
// WaitTimeout deadline still queued for the waiter is dead from here on
// (fireGateTimeout returns at once), so it is demoted to a daemon event: it
// must not keep Run alive until a deadline nobody waits for.
func (w *gateWaiter) release(k *Kernel) {
	w.woken = true
	if w.timeout != nil {
		w.timeout.daemon = true
		k.nUser--
	}
	k.AtArg(k.now, fireGateWake, w)
}

// Signal releases the oldest waiter that is not held back by a WaitUntil
// predicate (if any).
func (g *Gate) Signal(k *Kernel) {
	for i, w := range g.waiters {
		if w.blocked() {
			continue
		}
		g.removeAt(i)
		w.release(k)
		return
	}
}

// Broadcast releases every current waiter, except those whose WaitUntil
// predicate is false: they stay queued, in their order.
func (g *Gate) Broadcast(k *Kernel) {
	kept := g.waiters[:0]
	for _, w := range g.waiters {
		if w.blocked() {
			kept = append(kept, w)
			continue
		}
		w.release(k)
	}
	clear(g.waiters[len(kept):])
	g.waiters = kept
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

// At returns the i-th queued item, the head being 0; i must be below Len.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("sim: Ring.At(%d) with %d queued", i, r.n))
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
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

// Queue is an unbounded virtual-time FIFO on a Ring. Push never blocks; Pop
// blocks the calling process until an item is available.
type Queue[T any] struct {
	ring Ring[T]
	gate Gate
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.ring.n }

// Push appends v and wakes one waiter.
func (q *Queue[T]) Push(k *Kernel, v T) {
	q.ring.Push(v)
	q.gate.Signal(k)
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) { return q.ring.Pop() }

// PopTimeout blocks p until an item is available, then removes and returns
// it; ok is false if d elapsed first (Forever: never).
func (q *Queue[T]) PopTimeout(p *Proc, d Time) (T, bool) {
	deadline := p.Now() + d
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		remain := deadline - p.Now()
		if d == Forever {
			remain = Forever
		}
		if remain <= 0 || !q.gate.WaitTimeout(p, remain) {
			var zero T
			return zero, false
		}
	}
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
