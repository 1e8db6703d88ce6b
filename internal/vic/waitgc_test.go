package vic

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// gcPacket is a write to VIC 0 that decrements group counter gc on arrival.
func gcPacket(gc int, i int) dvswitch.Packet {
	return dvswitch.Packet{Src: 1, Dst: 0, Header: EncodeHeader(0, OpWrite, gc, uint32(i)), Payload: uint64(i)}
}

// gcFeed delivers a burst of counter-decrementing packets to a VIC, one
// every `every`, from a single self-rescheduling pooled event — as a fabric
// port would, and without allocating per packet (BenchmarkWaitGC).
type gcFeed struct {
	v     *VIC
	pkts  []dvswitch.Packet
	every sim.Time
	next  int
}

// start delivers the first packet one interval from now.
func (f *gcFeed) start() {
	f.next = 0
	f.v.k.AfterArg(f.every, fireGCFeed, f)
}

func fireGCFeed(a any) {
	f := a.(*gcFeed)
	f.v.Receive(f.pkts[f.next])
	if f.next++; f.next < len(f.pkts) {
		f.v.k.AfterArg(f.every, fireGCFeed, f)
	}
}

// deliverGCPackets hands v n counter-decrementing packets, one every spacing,
// the first at spacing; it returns when the last of them executes.
func deliverGCPackets(v *VIC, gc, n int, spacing sim.Time) (lastExec sim.Time) {
	f := &gcFeed{v: v, every: spacing}
	for i := 0; i < n; i++ {
		f.pkts = append(f.pkts, gcPacket(gc, i))
	}
	f.start()
	return sim.Time(n)*spacing + v.Params().ProcDelay
}

// A process waiting for a group counter to reach zero is resumed by the
// VIC's zero notification and by nothing else: the n packets that count it
// down, each arriving at its own instant, do not reach the host.
func TestWaitGCWakesOnce(t *testing.T) {
	const (
		gc      = 5
		n       = 100
		spacing = 200 * sim.Nanosecond // > LocalSetGC's PIO: armed before the first
	)
	k, v, _ := benchInjectVIC()
	notifyAt := deliverGCPackets(v, gc, n, spacing) + v.Params().GCNotify
	var resumesBefore, resumesAfter uint64
	var ok bool
	var wokeAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		v.LocalSetGC(p, gc, n)
		_, resumesBefore = k.Counts()
		ok = v.WaitGCZero(p, gc, sim.Forever)
		_, resumesAfter = k.Counts()
		wokeAt = p.Now()
	})
	k.Run()
	if !ok {
		t.Fatal("WaitGCZero(Forever) reported a timeout")
	}
	if got := resumesAfter - resumesBefore; got != 1 {
		t.Errorf("the wait was resumed %d times for %d packets, want once", got, n)
	}
	if wokeAt != notifyAt {
		t.Errorf("woke at %v, want the notify instant %v", wokeAt, notifyAt)
	}
	if _, resumes := k.Counts(); resumes != 3 { // start, LocalSetGC's PIO wait, the notification
		t.Errorf("run took %d process resumes, want 3", resumes)
	}
}

// The VIC-side wait (barriers, shmem fences) is resumed once too, when the
// counter passes its bound, whatever that bound is.
func TestWaitGCAtMostWakesOnce(t *testing.T) {
	const (
		gc      = 7
		n       = 40
		bound   = -25 // shmem counts down from zero
		spacing = 50 * sim.Nanosecond
	)
	k, v, _ := benchInjectVIC()
	deliverGCPackets(v, gc, n, spacing)
	var wokeAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		v.WaitGCAtMost(p, gc, bound)
		wokeAt = p.Now()
		v.WaitGCAtMost(p, gc, bound) // already there: returns without parking
	})
	k.Run()
	if want := -bound*spacing + v.Params().ProcDelay; wokeAt != want {
		t.Errorf("woke at %v, want %v (packet %d executing)", wokeAt, want, -bound)
	}
	if _, resumes := k.Counts(); resumes != 2 { // start, the packet that reached the bound
		t.Errorf("run took %d process resumes, want 2", resumes)
	}
}

// Why the timed WaitGCZero keeps waking on every counter change: when the
// zero notification is due at the very instant the timeout expires, the wait
// must report zero. It does because the wake-up for the last decrement
// re-arms the timeout after the notification was queued, so the notification
// fires first. A timeout armed once, at entry, would be queued ahead of the
// notification and win the tie — and move committed results (extN's
// unprotected heat row).
func TestTimedWaitGCNotifyWinsDeadlineTie(t *testing.T) {
	const (
		gc      = 5
		n       = 3
		spacing = 200 * sim.Nanosecond
	)
	k, v, _ := benchInjectVIC()
	notifyAt := deliverGCPackets(v, gc, n, spacing) + v.Params().GCNotify
	var ok bool
	var wokeAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		v.LocalSetGC(p, gc, n)
		ok = v.WaitGCZero(p, gc, notifyAt-p.Now()) // deadline == notify instant
		wokeAt = p.Now()
	})
	k.Run()
	if !ok {
		t.Error("timed wait lost the tie: reported a timeout at the instant the zero was notified")
	}
	if wokeAt != notifyAt {
		t.Errorf("woke at %v, want %v", wokeAt, notifyAt)
	}
	// One instant earlier the deadline is strictly first and must win.
	k, v, _ = benchInjectVIC()
	deliverGCPackets(v, gc, n, spacing)
	k.Spawn("host", func(p *sim.Proc) {
		v.LocalSetGC(p, gc, n)
		ok = v.WaitGCZero(p, gc, notifyAt-1-p.Now())
	})
	k.Run()
	if ok {
		t.Error("timed wait with its deadline 1 ps before the notification reported zero")
	}
}

// newVICSink keeps what vic.New returns on the heap, as a cluster does.
var newVICSink *VIC

// A VIC is built with one gate and one wait record, whatever its counter
// count: vic.New makes no per-counter gate or predicate. (It made 136
// allocations, 7,920 B, for 64 counters when each counter had its own gate
// and two predicate closures; it now makes 4, 1,392 B, on go1.24.)
func TestNewAllocations(t *testing.T) {
	k := sim.NewKernel()
	par := DefaultParams()
	inject := func(dvswitch.Packet) {}
	if n := testing.AllocsPerRun(100, func() { newVICSink = New(k, 0, 0, par, inject) }); n > 16 {
		t.Errorf("vic.New made %.0f allocations for %d counters, want at most 16", n, par.GroupCounters)
	}
}

// The VIC signals its gate only for a change that ends what its process
// waits for. A change of another counter, a host-ring push while the process
// waits on a counter, and a counter change while it waits for a surprise
// word each leave the kernel's counts as a run without the change: no wake
// event is scheduled and the process is not resumed.
func TestSignalsOnlyTheWaitItEnds(t *testing.T) {
	const gc, other = 5, 6
	zero := func(timeout sim.Time) func(v *VIC, p *sim.Proc) {
		return func(v *VIC, p *sim.Proc) { v.WaitGCZero(p, gc, timeout) }
	}
	atMost := func(v *VIC, p *sim.Proc) { v.WaitGCAtMost(p, gc, 0) }
	pop := func(v *VIC, p *sim.Proc) { v.PopSurprise(p, sim.Forever) }
	zeroGC := func(v *VIC) { v.setGC(gc, 0) }
	push := func(v *VIC) { v.pushHost(7) }
	changeGC := func(c int) func(v *VIC) {
		return func(v *VIC) { v.setGC(c, 4); v.decGC(c, 1) }
	}
	tests := []struct {
		name  string
		wait  func(v *VIC, p *sim.Proc) // parks at time zero
		end   func(v *VIC)              // at 200 ns: ends the wait
		extra func(v *VIC)              // at 100 ns, in one of the two runs
	}{
		{"WaitGCZero, another counter changes", zero(sim.Forever), zeroGC, changeGC(other)},
		{"timed WaitGCZero, another counter changes", zero(sim.Second), zeroGC, changeGC(other)},
		{"WaitGCAtMost, another counter changes", atMost, zeroGC, changeGC(other)},
		{"WaitGCZero, a host-ring push", zero(sim.Forever), zeroGC, push},
		{"timed WaitGCZero, a host-ring push", zero(sim.Second), zeroGC, push},
		{"WaitGCAtMost, a host-ring push", atMost, zeroGC, push},
		{"PopSurprise, its VIC's counter changes", pop, push, changeGC(gc)},
		{"PopSurprise, another counter changes", pop, push, changeGC(other)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			run := func(extra bool) (events, resumes uint64, woke sim.Time) {
				k := sim.NewKernel()
				v := New(k, 0, 0, DefaultParams(), func(dvswitch.Packet) {})
				v.setGC(gc, 3)
				k.At(100*sim.Nanosecond, func() {
					if extra {
						tt.extra(v)
					}
				})
				k.At(200*sim.Nanosecond, func() { tt.end(v) })
				k.Spawn("host", func(p *sim.Proc) {
					tt.wait(v, p)
					woke = p.Now()
				})
				k.Run()
				events, resumes = k.Counts()
				return events, resumes, woke
			}
			ev0, rs0, woke0 := run(false)
			ev, rs, woke := run(true)
			if ev != ev0 || rs != rs0 || woke != woke0 {
				t.Errorf("with the change: %d events, %d resumes, woke at %v; without: %d, %d, %v",
					ev, rs, woke, ev0, rs0, woke0)
			}
			if woke0 < 200*sim.Nanosecond {
				t.Errorf("the wait ended at %v, before the change that ends it", woke0)
			}
		})
	}
}
