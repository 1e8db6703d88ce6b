//go:build go1.23

// The build constraint raises this one file's language version to go1.23
// (package iter) while go.mod stays at go 1.22, which benchmark/go.mod
// requires of the module it replaces. There is no fallback file: an older
// toolchain fails to build the package.

package sim

import "iter"

// A process and the kernel loop are the two sides of one runtime coroutine
// (iter.Pull): next switches the calling thread directly to the process's
// goroutine and yield switches it straight back, without a trip through the
// Go scheduler's run queue and without waking an idle P. Exactly one side
// runs at any instant, as before; only the price of changing sides moved.
// Who runs next is still decided by the event queue alone, so the handoff
// cannot reorder anything the simulation observes.

// start creates p's coroutine and runs fn on it until its first park (or
// its end). It is the body of the time-zero event Spawn schedules.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.live = false
			p.k.nlive--
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					// Not ours: iter.Pull re-raises it from next (or
					// stop), on the goroutine pumping the kernel.
					panic(r)
				}
			}
		}()
		fn(p)
	})
	p.k.resumeProc(p)
}

// resumeProc hands control to p and returns when it parks or exits.
// Must be called from the kernel goroutine (inside an event callback).
func (k *Kernel) resumeProc(p *Proc) {
	k.nResumed++
	p.next()
}

// park blocks the process until the kernel resumes it. Returns normally on
// resume; panics with abortSignal when the kernel is draining. Every blocking
// primitive parks here, so this is where a Chain step that blocks is caught.
func (p *Proc) park() {
	p.mayBlock()
	p.suspend()
}

// suspend is park without the Chain check: Chain's own park, made with its
// chain set. An aborted process is in no chain any more, so the deferred
// calls of its body may block (and are aborted in turn) as after any park.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		p.chain = nil
		panic(abortSignal{})
	}
}
