package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestBytesAt(t *testing.T) {
	// 1 GB/s => 1 byte per nanosecond.
	if got := BytesAt(1000, 1e9); got != Microsecond {
		t.Fatalf("BytesAt(1000, 1e9) = %v, want 1us", got)
	}
	if got := BytesAt(0, 1e9); got != 0 {
		t.Fatalf("BytesAt(0) = %v, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(20*Nanosecond, func() { order = append(order, 2) })
	k.At(10*Nanosecond, func() { order = append(order, 1) })
	k.At(20*Nanosecond, func() { order = append(order, 3) }) // same time, later seq
	k.At(30*Nanosecond, func() { order = append(order, 4) })
	end := k.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3 4]", order)
		}
	}
}

func TestProcWait(t *testing.T) {
	k := NewKernel()
	var stamps []Time
	k.Spawn("a", func(p *Proc) {
		p.Wait(5 * Nanosecond)
		stamps = append(stamps, p.Now())
		p.Wait(10 * Nanosecond)
		stamps = append(stamps, p.Now())
	})
	k.Run()
	if len(stamps) != 2 || stamps[0] != 5*Nanosecond || stamps[1] != 15*Nanosecond {
		t.Fatalf("stamps = %v", stamps)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Wait(10)
		order = append(order, "a10")
		p.Wait(20)
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Wait(20)
		order = append(order, "b20")
		p.Wait(20)
		order = append(order, "b40")
	})
	k.Run()
	want := []string{"a10", "b20", "a30", "b40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Wait(10)
		p.WaitUntil(5) // in the past
		if p.Now() != 10 {
			t.Errorf("WaitUntil past moved time to %v", p.Now())
		}
	})
	k.Run()
}

// Signals resume their waiters in the order they were made: each is a wake
// event at the signal's instant.
func TestGateSignalFIFO(t *testing.T) {
	k := NewKernel()
	gates := make([]Gate, 3)
	var order []string
	for i, name := range []string{"p1", "p2", "p3"} {
		k.Spawn(name, func(p *Proc) {
			gates[i].Wait(p)
			order = append(order, fmt.Sprint(name, "@", int64(p.Now())))
		})
	}
	k.Spawn("sig", func(p *Proc) {
		p.Wait(100)
		gates[0].Signal(p.k)
		p.Wait(100)
		gates[2].Signal(p.k)
		gates[1].Signal(p.k)
	})
	k.Run()
	if want := []string{"p1@100", "p3@200", "p2@200"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestGateWaitTimeout(t *testing.T) {
	k := NewKernel()
	var g1, g2 Gate
	var gotSignal, gotTimeout bool
	k.Spawn("w1", func(p *Proc) {
		gotSignal = g1.WaitTimeout(p, 50*Nanosecond)
		if p.Now() != 10*Nanosecond {
			t.Errorf("signalled waiter woke at %v", p.Now())
		}
	})
	k.Spawn("w2", func(p *Proc) {
		gotTimeout = g2.WaitTimeout(p, 50*Nanosecond)
		if p.Now() != 50*Nanosecond {
			t.Errorf("timed-out waiter woke at %v", p.Now())
		}
	})
	k.Spawn("sig", func(p *Proc) {
		p.Wait(10 * Nanosecond)
		g1.Signal(p.k) // wakes w1 only
	})
	k.Run()
	if !gotSignal {
		t.Error("w1 should report signalled")
	}
	if gotTimeout {
		t.Error("w2 should report timeout")
	}
	if g1.w != nil || g2.w != nil {
		t.Error("a gate still has its waiter")
	}
}

func TestGateTimeoutForever(t *testing.T) {
	k := NewKernel()
	var g Gate
	ok := false
	k.Spawn("w", func(p *Proc) { ok = g.WaitTimeout(p, Forever) })
	k.Spawn("s", func(p *Proc) { p.Wait(5); g.Signal(p.k) })
	k.Run()
	if !ok {
		t.Fatal("Forever wait should be signalled")
	}
}

// hostQueue is a FIFO that one process pops, as a VIC's host ring is: the
// producer pushes and signals, and the consumer waits on the gate while the
// ring is empty.
type hostQueue struct {
	ring Ring[int]
	gate Gate
}

func (q *hostQueue) push(k *Kernel, v int) {
	q.ring.Push(v)
	q.gate.Signal(k)
}

// pop returns the head item, waiting up to d for one (Forever: for ever).
func (q *hostQueue) pop(p *Proc, d Time) (int, bool) {
	deadline := p.Now() + d
	for q.ring.Len() == 0 {
		if d == Forever {
			q.gate.Wait(p)
			continue
		}
		if remain := deadline - p.Now(); remain <= 0 || !q.gate.WaitTimeout(p, remain) {
			return 0, false
		}
	}
	return q.ring.Pop()
}

func TestQueueBlockingPop(t *testing.T) {
	k := NewKernel()
	var q hostQueue
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, _ := q.pop(p, Forever)
			got = append(got, v)
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(10)
			q.push(p.k, i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel()
	var q hostQueue
	k.Spawn("c", func(p *Proc) {
		if _, ok := q.pop(p, 20); ok {
			t.Error("expected timeout")
		}
		if p.Now() != 20 {
			t.Errorf("timeout at %v, want 20", p.Now())
		}
		v, ok := q.pop(p, 100)
		if !ok || v != 7 || p.Now() != 50 {
			t.Errorf("got %d,%v at %v, want 7,true at 50", v, ok, p.Now())
		}
	})
	k.Spawn("p", func(p *Proc) {
		p.Wait(50)
		q.push(p.k, 7)
	})
	k.Run()
}

func TestPipeSerialises(t *testing.T) {
	k := NewKernel()
	var pipe Pipe
	var done []Time
	for i := 0; i < 3; i++ {
		k.Spawn("u", func(p *Proc) {
			pipe.Occupy(p, 10*Nanosecond)
			done = append(done, p.Now())
		})
	}
	k.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if pipe.Busy != 30*Nanosecond {
		t.Fatalf("pipe.Busy = %v", pipe.Busy)
	}
}

func TestPipeIdleGap(t *testing.T) {
	k := NewKernel()
	var pipe Pipe
	k.Spawn("a", func(p *Proc) {
		pipe.Occupy(p, 10)
		p.Wait(100) // idle gap
		end := pipe.Occupy(p, 10)
		if end != 120 {
			t.Errorf("second occupy ended at %v, want 120", end)
		}
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(20, func() { fired++ })
	k.At(30, func() { fired++ })
	k.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	k.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestDrainAbandonedProcs(t *testing.T) {
	k := NewKernel()
	var g Gate
	reached := false
	k.Spawn("stuck", func(p *Proc) {
		g.Wait(p) // never signalled
		reached = true
	})
	k.Run()
	if reached {
		t.Fatal("stuck proc should not have continued")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after drain", k.LiveProcs())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		var q hostQueue
		var stamps []Time
		rng := NewRNG(42)
		for i := 0; i < 8; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Wait(Time(rng.Intn(100) + 1))
					q.push(p.k, j)
				}
			})
		}
		k.Spawn("c", func(p *Proc) {
			for i := 0; i < 80; i++ {
				q.pop(p, Forever)
				stamps = append(stamps, p.Now())
			}
		})
		k.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 80 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGUniform(t *testing.T) {
	r := NewRNG(1)
	var buckets [10]int
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/100 || b > n/10+n/100 {
			t.Errorf("bucket %d = %d, outside 10%%±1%%", i, b)
		}
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	check := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := NewRNG(seed).Uint64n(n)
		return v < n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministicSplit(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("split children diverge")
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("parents diverge")
		}
	}
}

func TestMonotonicTimeProperty(t *testing.T) {
	check := func(seed uint64) bool {
		k := NewKernel()
		rng := NewRNG(seed)
		ok := true
		var last Time
		for i := 0; i < 5; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Wait(Time(rng.Intn(50)))
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilThenResumeProcs(t *testing.T) {
	k := NewKernel()
	var reached []Time
	k.Spawn("p", func(p *Proc) {
		p.Wait(10)
		reached = append(reached, p.Now())
		p.Wait(10)
		reached = append(reached, p.Now())
	})
	k.RunUntil(10)
	if len(reached) != 1 {
		t.Fatalf("after RunUntil(10): %v", reached)
	}
	k.Run()
	if len(reached) != 2 || reached[1] != 20 {
		t.Fatalf("after Run: %v", reached)
	}
}

func TestSignalWithNoWaitersIsNoop(t *testing.T) {
	k := NewKernel()
	var g Gate
	g.Signal(k)
	done := false
	k.Spawn("p", func(p *Proc) {
		// Past signals must not satisfy a future wait.
		if g.WaitTimeout(p, 10) {
			t.Error("stale signal consumed")
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc never ran")
	}
}

// TestAtArgInterleavesWithAt checks that closure and pooled-payload events
// share one deterministic ordering (time, then scheduling sequence).
func TestAtArgInterleavesWithAt(t *testing.T) {
	k := NewKernel()
	var order []int
	add := func(v int) func(any) {
		return func(a any) { order = append(order, v+a.(int)) }
	}
	k.At(10*Nanosecond, func() { order = append(order, 1) })
	k.AtArg(10*Nanosecond, add(0), 2)
	k.AtArg(5*Nanosecond, add(0), 0)
	k.AfterArg(10*Nanosecond, add(0), 3)
	k.Run()
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtArgPastPanics: AtArg enforces the same no-past rule as At.
func TestAtArgPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtArg in the past should panic")
			}
		}()
		k.AtArg(5*Nanosecond, func(any) {}, nil)
	})
	k.Run()
}

// TestEventPoolReuse drives many sequential events and checks the event pool
// keeps the payloads flowing correctly (a recycled event must not leak its
// previous callback or argument).
func TestEventPoolReuse(t *testing.T) {
	k := NewKernel()
	const n = 1000
	sum := 0
	var schedule func(i int)
	schedule = func(i int) {
		if i == n {
			return
		}
		if i%2 == 0 {
			k.AfterArg(Nanosecond, func(a any) { sum += a.(int); schedule(i + 1) }, i)
		} else {
			k.After(Nanosecond, func() { sum += i; schedule(i + 1) })
		}
	}
	schedule(0)
	k.Run()
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestDaemonEventsFireWhileUserEventsRemain(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, k.Now())
		k.AfterDaemon(10*Nanosecond, tick)
	}
	k.AtDaemon(0, tick)
	k.At(35*Nanosecond, func() {})
	end := k.Run()
	// Daemon ticks at 0, 10, 20, 30 fire before the user event at 35; the
	// tick queued for 40 is discarded and the run stops at 35.
	want := []Time{0, 10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	if len(ticks) != len(want) {
		t.Fatalf("got %d daemon ticks %v, want %v", len(ticks), ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
	if end != 35*Nanosecond {
		t.Fatalf("Run ended at %v, want 35ns", end)
	}
}

func TestDaemonOnlyRunStopsImmediately(t *testing.T) {
	k := NewKernel()
	fired := false
	k.AtDaemon(5*Nanosecond, func() { fired = true })
	if end := k.Run(); end != 0 {
		t.Fatalf("Run ended at %v, want 0", end)
	}
	if fired {
		t.Fatal("daemon event fired with no user events queued")
	}
}

func TestRunUntilStopsWhenOnlyDaemonsRemain(t *testing.T) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		n++
		k.AfterDaemon(Nanosecond, tick)
	}
	k.AtDaemon(0, tick)
	k.At(2*Nanosecond, func() {})
	k.RunUntil(100 * Nanosecond)
	// Ticks at 0 and 1 run; the tick re-queued for 2ns carries a later seq
	// than the user event at 2ns, so once that user event fires the run
	// stops even though the limit is far away.
	if n != 2 {
		t.Fatalf("got %d daemon ticks, want 2", n)
	}
	if k.Now() != 2*Nanosecond {
		t.Fatalf("RunUntil stopped at %v, want 2ns", k.Now())
	}
}

// parkFive spawns one process parked forever in each blocking primitive —
// Wait, Gate.Wait, Gate.WaitTimeout, a Chain awaiting a gate and
// Pipe.Occupy — and returns how many of their deferred calls have run, which
// is how a test sees that drain unwound them rather than dropping them.
func parkFive(k *Kernel) (unwound *int) {
	unwound = new(int)
	var gw, gt, ga Gate
	var pp Pipe
	k.Spawn("wait", func(p *Proc) {
		defer func() { *unwound++ }()
		p.Wait(Second)
	})
	k.Spawn("gate", func(p *Proc) {
		defer func() { *unwound++ }()
		gw.Wait(p)
	})
	k.Spawn("timeout", func(p *Proc) {
		defer func() { *unwound++ }()
		gt.WaitTimeout(p, Second)
	})
	k.Spawn("await", func(p *Proc) {
		defer func() { *unwound++ }()
		p.Chain(&steps{p: p, fs: []func(*Proc) (Time, bool){
			func(p *Proc) (Time, bool) { ga.Await(p); return 0, false },
		}})
	})
	k.Spawn("occupy", func(p *Proc) {
		defer func() { *unwound++ }()
		pp.Occupy(p, Second)
	})
	return unwound
}

// Finish on a kernel whose processes' time-zero start events never fired has
// no goroutine to unwind: it retires the processes and returns.
func TestFinishBeforeFirstEvent(t *testing.T) {
	k := NewKernel()
	started := false
	k.Spawn("never", func(p *Proc) { started = true })
	k.Spawn("never2", func(p *Proc) { p.Wait(10) })
	if k.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d before Finish, want 2", k.LiveProcs())
	}
	if end := k.Finish(); end != 0 {
		t.Fatalf("Finish = %v, want 0", end)
	}
	if started {
		t.Fatal("Finish started a process whose start event it discarded")
	}
	if k.LiveProcs() != 0 || k.PendingUser() != 0 {
		t.Fatalf("after Finish: LiveProcs = %d, PendingUser = %d, want 0, 0", k.LiveProcs(), k.PendingUser())
	}

	// The same with one process started and parked and one not yet started.
	k = NewKernel()
	k.Spawn("early", func(p *Proc) {
		p.Wait(10)
		p.k.Spawn("late", func(p *Proc) { started = true })
		p.Wait(Second)
	})
	k.RunUntilN(Forever, 2) // start "early", then its first wake-up: "late" is spawned, not started
	if k.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d before Finish, want 2", k.LiveProcs())
	}
	k.Finish()
	if started || k.LiveProcs() != 0 {
		t.Fatalf("after Finish: started = %v, LiveProcs = %d", started, k.LiveProcs())
	}
}

// A panic in a process body surfaces, with its original value, on the
// goroutine pumping the kernel — through Run and through a stepped run —
// and the kernel can still be finished afterwards.
func TestProcPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	pumps := map[string]func(k *Kernel){
		"Run":       func(k *Kernel) { k.Run() },
		"RunUntilN": func(k *Kernel) { k.RunUntilN(Forever, 1<<20) },
	}
	for name, pump := range pumps {
		t.Run(name, func(t *testing.T) {
			base := settledGoroutines(t)
			k := NewKernel()
			unwound := parkFive(k)
			k.Spawn("bad", func(p *Proc) {
				p.Wait(10)
				panic(boom)
			})
			got := func() (r any) {
				defer func() { r = recover() }()
				pump(k)
				return nil
			}()
			if got != boom {
				t.Fatalf("pump recovered %v, want the process's own panic value", got)
			}
			if k.Now() != 10 || k.LiveProcs() != 5 {
				t.Fatalf("after the panic: now = %v, LiveProcs = %d, want 10ps, 5", k.Now(), k.LiveProcs())
			}
			k.Finish()
			if *unwound != 5 || k.LiveProcs() != 0 {
				t.Fatalf("after Finish: unwound = %d, LiveProcs = %d, want 5, 0", *unwound, k.LiveProcs())
			}
			if n := runtime.NumGoroutine(); n != base {
				t.Fatalf("goroutines = %d, want the baseline %d", n, base)
			}
		})
	}
}

// The abortSignal that unwinds a parked process stays inside drain, also
// when the process's own deferred calls try to block again on the way out.
func TestAbortSignalNeverEscapesDrain(t *testing.T) {
	k := NewKernel()
	unwound := parkFive(k)
	var g, own Gate
	k.Spawn("reparks", func(p *Proc) {
		defer func() { *unwound++ }()
		defer p.Wait(5) // parks during the unwind: aborted again at once
		defer g.Wait(p) // likewise
		p.Wait(Second)
	})
	k.Spawn("reparks on its gate", func(p *Proc) {
		defer func() { *unwound++ }()
		defer own.Wait(p) // the gate still holds p's aborted wait: p may take it again
		own.Wait(p)
	})
	k.Spawn("work", func(p *Proc) { p.Wait(100) })
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Run panicked with %#v", r)
			}
		}()
		k.RunUntil(100)
		k.Finish()
	}()
	if *unwound != 7 || k.LiveProcs() != 0 {
		t.Fatalf("unwound = %d, LiveProcs = %d, want 7, 0", *unwound, k.LiveProcs())
	}
}

// settledGoroutines returns runtime.NumGoroutine once the count has held
// still for 50 consecutive 1 ms polls, so a goroutine an earlier test left
// exiting (a stopped FanPool's workers return asynchronously) is not taken
// into a baseline. It fails t if the count does not settle within 10 s.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n, still := runtime.NumGoroutine(), 0
	for still < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count did not settle within 10 s (last read %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// No goroutine outlives a run: every process goroutine, finished or parked
// in any blocking primitive, is gone when Run or Finish returns.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	base := settledGoroutines(t)
	check := func(when string, unwound *int) {
		t.Helper()
		if *unwound != 5 {
			t.Fatalf("%s: %d of 5 parked processes unwound", when, *unwound)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%s: goroutines = %d, want the baseline %d", when, n, base)
		}
	}

	k := NewKernel()
	unwound := parkFive(k)
	for i := 0; i < 8; i++ {
		k.Spawn("worker", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Wait(7)
			}
		})
	}
	// The parked Wait, WaitTimeout and Occupy hold user events, so Run
	// pumps to their deadline; only the gate and chain waiters are still
	// parked for drain. RunUntil+Finish below aborts all five.
	k.Run()
	check("after Run", unwound)

	k = NewKernel()
	unwound = parkFive(k)
	k.Spawn("worker", func(p *Proc) { p.Wait(50) })
	k.RunUntil(100)
	if n := runtime.NumGoroutine(); n != base+5 {
		t.Fatalf("mid-run: goroutines = %d, want baseline %d + 5 parked", n, base)
	}
	k.Finish()
	check("after RunUntil+Finish", unwound)
}
