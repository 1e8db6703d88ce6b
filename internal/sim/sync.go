package sim

// gateWaiter tracks one parked process on a Gate, with cancellation support
// so timeouts can withdraw a waiter without racing its wakeup.
type gateWaiter struct {
	p     *Proc
	g     *Gate // owning gate, so a pooled timeout event can withdraw w
	woken bool  // a wake event has been scheduled for this waiter
	fired bool  // set by whichever of wake/timeout wins
	timed bool  // true if the waiter timed out
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
	w.p.k.resumeProc(w.p)
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

// Gate is a virtual-time condition variable. Processes park on it with Wait
// (or WaitTimeout) and are released by Signal/Broadcast in FIFO order.
// The caller is responsible for re-checking its predicate after waking, as
// with sync.Cond.
type Gate struct {
	waiters []*gateWaiter
}

// Waiters returns the number of processes currently parked on the gate.
func (g *Gate) Waiters() int { return len(g.waiters) }

// Wait parks p until Signal or Broadcast releases it.
func (g *Gate) Wait(p *Proc) {
	w := &gateWaiter{p: p}
	g.waiters = append(g.waiters, w)
	p.park()
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
	p.k.AtArgLane(int(p.lane), p.k.now+d, fireGateTimeout, w)
	p.park()
	return !w.timed
}

func (g *Gate) remove(w *gateWaiter) {
	for i, x := range g.waiters {
		if x == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// Signal releases the oldest waiter (if any). The wakeup is delivered as an
// event at the current time, preserving deterministic ordering. It is
// scheduled on the waiter's home lane — a signal may come from any lane (a
// fabric delivery waking a node's queue pop), but the wakeup belongs to the
// parked process.
func (g *Gate) Signal(k *Kernel) {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		if w.fired {
			continue
		}
		w.woken = true
		k.AtArgLane(int(w.p.lane), k.now, fireGateWake, w)
		return
	}
}

// Broadcast releases every current waiter.
func (g *Gate) Broadcast(k *Kernel) {
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		if w.fired {
			continue
		}
		w.woken = true
		k.AtArgLane(int(w.p.lane), k.now, fireGateWake, w)
	}
}

// Queue is an unbounded virtual-time FIFO. Push never blocks; Pop blocks the
// calling process until an item is available. Storage is a power-of-two ring
// that is retained at its high-water capacity, so a queue in steady state
// (e.g. the VIC's host-side surprise ring) never allocates: the previous
// slice-backed FIFO re-allocated its tail every time the head chased it.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
	gate Gate
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v and wakes one waiter.
func (q *Queue[T]) Push(k *Kernel, v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.gate.Signal(k)
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Snapshot returns a copy of the queued items, head first (checkpointing).
func (q *Queue[T]) Snapshot() []T {
	out := make([]T, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	return out
}

// Pop blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.gate.Wait(p)
	}
}

// PopTimeout is Pop with a deadline; ok is false if d elapsed first.
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
func (pp *Pipe) Reserve(k *Kernel, d Time) Time {
	start := k.now
	if pp.busyUntil > start {
		start = pp.busyUntil
	}
	pp.busyUntil = start + d
	pp.Busy += d
	return pp.busyUntil
}

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
