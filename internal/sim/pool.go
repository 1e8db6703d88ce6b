package sim

import (
	"runtime"
	"sync/atomic"
)

// Ledger-only: nothing in the product builds a FanPool. This file stays
// because benchmark/fan.go measures the ledger key dvswitch.fan2_speedup over
// a real NewFanPool(2), and nothing under benchmark/ may change outside a
// benchmark-archetype PR. The PR that retires that key (ROADMAP open item 6)
// deletes this file with internal/dvswitch/par.go; TestFanIsLedgerOnly at the
// repo root keeps new callers out until then.
//
// A FanPool lets one caller fan data-parallel work (the cycle-accurate
// switch's move phases) across workers. A Run call returns only when every
// participant has finished, so to whoever calls it the work is still atomic:
// determinism is preserved as long as the fanned work itself partitions
// deterministically, which callers guarantee by static chunking plus merges
// between Barrier calls.

// FanCtx is one participant's view of a Fan call.
type FanCtx struct {
	id    int
	parts int
	b     *spinBarrier
	sense uint32
	fn    func(*FanCtx)
}

// ID returns this participant's index in [0, Parts()).
func (c *FanCtx) ID() int { return c.id }

// Parts returns the number of participants in this Fan call.
func (c *FanCtx) Parts() int { return c.parts }

// Barrier blocks until every participant of the Fan call has reached it.
// With a single participant it is a no-op.
func (c *FanCtx) Barrier() {
	if c.b != nil {
		c.b.wait(&c.sense)
	}
}

// spinBarrier is a sense-reversing barrier. Participants spin (with Gosched
// backoff) rather than block: Fan sections are microseconds long and the
// workers are dedicated, so parking them in the runtime per cylinder pass
// would cost more than the spin. The atomics give the race detector the
// happens-before edges that make barrier-separated phases provably clean.
type spinBarrier struct {
	n       int32
	arrived atomic.Int32
	sense   atomic.Uint32
}

func (b *spinBarrier) wait(local *uint32) {
	s := *local ^ 1
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.sense.Store(s)
	} else {
		for spins := 0; b.sense.Load() != s; spins++ {
			if spins > 256 {
				runtime.Gosched()
			}
		}
	}
	*local = s
}

// FanPool is a fixed-width pool of long-lived workers executing Fan calls.
// Width 1 is legal and means "run inline" — no goroutines exist. A pool is
// NOT safe for concurrent Run calls; its owner serializes them.
type FanPool struct {
	n       int
	start   []chan *FanCtx
	done    chan struct{}
	stop    chan struct{}
	stopped bool
	bar     spinBarrier
	ctxs    []*FanCtx
}

// NewFanPool returns a pool of width n (minimum 1). Widths beyond NumCPU
// are allowed — results are identical at any width, and the lockstep tests
// rely on that to exercise real multi-worker interleavings on small CI
// machines — but they add preemption stalls.
func NewFanPool(n int) *FanPool {
	if n < 1 {
		n = 1
	}
	p := &FanPool{n: n}
	if n == 1 {
		return p
	}
	p.start = make([]chan *FanCtx, n-1)
	p.done = make(chan struct{}, n-1)
	p.stop = make(chan struct{})
	p.ctxs = make([]*FanCtx, n)
	p.bar.n = int32(n)
	for i := range p.ctxs {
		p.ctxs[i] = &FanCtx{id: i, parts: n, b: &p.bar}
	}
	for i := range p.start {
		p.start[i] = make(chan *FanCtx)
		go func(ch chan *FanCtx, stop chan struct{}) {
			for {
				select {
				case c := <-ch:
					c.fn(c)
					p.done <- struct{}{}
				case <-stop:
					return
				}
			}
		}(p.start[i], p.stop)
	}
	return p
}

// Workers returns the pool width.
func (p *FanPool) Workers() int { return p.n }

// Run executes fn once per participant, concurrently, and returns when all
// participants have finished. Participants coordinate via FanCtx.Barrier.
func (p *FanPool) Run(fn func(*FanCtx)) {
	if p.n == 1 {
		c := FanCtx{id: 0, parts: 1}
		fn(&c)
		return
	}
	for _, c := range p.ctxs {
		c.fn = fn
	}
	for i := range p.start {
		p.start[i] <- p.ctxs[i+1]
	}
	p.ctxs[0].fn(p.ctxs[0])
	for range p.start {
		<-p.done
	}
	for _, c := range p.ctxs {
		c.fn = nil
	}
}

// Stop terminates the worker goroutines. The pool must not be used after.
// Safe to call more than once (from the owning goroutine).
func (p *FanPool) Stop() {
	if p.stop != nil && !p.stopped {
		p.stopped = true
		close(p.stop)
	}
}
