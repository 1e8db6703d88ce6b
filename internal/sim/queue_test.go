package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestRunUntilNTable pins the stepped pump's edge cases: an empty queue, a
// queue holding only daemons, a limit falling exactly on an event's
// timestamp, and budgets on both sides of the eligible count.
func TestRunUntilNTable(t *testing.T) {
	type ev struct {
		at     Time
		daemon bool
	}
	cases := []struct {
		name      string
		evs       []ev
		limit     Time
		n         int
		wantFired int
		wantNow   Time
	}{
		{name: "empty queue", limit: 100, n: 10, wantFired: 0, wantNow: 0},
		{name: "daemon-only queue",
			evs:   []ev{{10, true}, {20, true}},
			limit: 100, n: 10, wantFired: 0, wantNow: 0},
		{name: "limit at exact event time",
			evs:   []ev{{10, false}, {20, false}, {30, false}},
			limit: 20, n: 10, wantFired: 2, wantNow: 20},
		{name: "limit just below event",
			evs:   []ev{{10, false}, {20, false}},
			limit: 19, n: 10, wantFired: 1, wantNow: 10},
		{name: "budget below eligible",
			evs:   []ev{{10, false}, {20, false}, {30, false}},
			limit: 100, n: 2, wantFired: 2, wantNow: 20},
		{name: "daemons interleaved fire within limit",
			evs:   []ev{{10, false}, {15, true}, {20, false}},
			limit: 20, n: 10, wantFired: 3, wantNow: 20},
		{name: "trailing daemons left queued",
			evs:   []ev{{10, false}, {50, true}},
			limit: 100, n: 10, wantFired: 1, wantNow: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			for _, e := range tc.evs {
				if e.daemon {
					k.AtDaemon(e.at, func() {})
				} else {
					k.At(e.at, func() {})
				}
			}
			if got := k.RunUntilN(tc.limit, tc.n); got != tc.wantFired {
				t.Errorf("fired %d events, want %d", got, tc.wantFired)
			}
			if k.Now() != tc.wantNow {
				t.Errorf("now = %v, want %v", k.Now(), tc.wantNow)
			}
		})
	}
}

// TestNextUserEventTable pins the idle fast-forward probe: empty queue,
// daemon-only queue, and a mix where daemons precede the earliest user event.
func TestNextUserEventTable(t *testing.T) {
	t.Run("empty queue", func(t *testing.T) {
		k := NewKernel()
		if at, ok := k.NextUserEvent(); ok {
			t.Errorf("NextUserEvent = (%v, true), want none", at)
		}
	})
	t.Run("daemon-only queue", func(t *testing.T) {
		k := NewKernel()
		k.AtDaemon(5, func() {})
		k.AtDaemon(10, func() {})
		if at, ok := k.NextUserEvent(); ok {
			t.Errorf("NextUserEvent = (%v, true), want none", at)
		}
	})
	t.Run("daemon before user", func(t *testing.T) {
		k := NewKernel()
		k.AtDaemon(5, func() {})
		k.At(30, func() {})
		k.At(12, func() {})
		at, ok := k.NextUserEvent()
		if !ok || at != 12 {
			t.Errorf("NextUserEvent = (%v, %v), want (12, true)", at, ok)
		}
	})
}

// TestCalendarQueueEdges pins the event queue's edge cases (named for the
// calendar store it first covered): an event scheduled far beyond the others,
// same-time events popping in schedule order, and an event scheduled far past
// a queue that was run dry.
func TestCalendarQueueEdges(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	far := Time(153600)
	k.At(far, rec(4))
	// Same timestamp: schedule order is fire order.
	k.At(500, rec(0))
	k.At(500, rec(1))
	k.At(510, rec(2))
	k.At(90000, rec(3))
	if end := k.Run(); end != far {
		t.Errorf("run ended at %v, want %v", end, far)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}

	k2 := NewKernel()
	k2.At(50, func() {})
	k2.RunUntil(50)
	fired := false
	later := Time(51200000)
	k2.At(later, func() { fired = true })
	if end := k2.Run(); !fired || end != later {
		t.Errorf("event at %v past the drained queue: fired %v, run ended at %v", later, fired, end)
	}
}

// TestFanBarrier exercises the worker pool: static chunking with barriers
// between phases must produce the serial result at any width, including
// widths beyond the host's core count, and Stop must be idempotent.
func TestFanBarrier(t *testing.T) {
	const n = 1 << 12
	for _, w := range []int{1, 2, 4, 8} {
		p := NewFanPool(w)
		in := make([]int, n)
		mid := make([]int, n)
		var sums = make([]int, p.Workers())
		p.Run(func(c *FanCtx) {
			lo, hi := n*c.ID()/c.Parts(), n*(c.ID()+1)/c.Parts()
			for i := lo; i < hi; i++ {
				in[i] = i
			}
			c.Barrier()
			// Phase 2 reads a neighbour chunk's phase-1 writes: the barrier
			// must order them.
			for i := lo; i < hi; i++ {
				mid[i] = in[(i+n/2)%n] * 2
			}
			c.Barrier()
			s := 0
			for i := lo; i < hi; i++ {
				s += mid[i]
			}
			sums[c.ID()] = s
		})
		total := 0
		for _, s := range sums {
			total += s
		}
		if want := n * (n - 1); total != want {
			t.Errorf("width %d: sum %d, want %d", w, total, want)
		}
		p.Stop()
		p.Stop() // idempotent
	}
}

// FuzzAtArgSeqLockstep randomizes an event program — same-time ties,
// callback-spawned children, and chain items (see chain in reserve_test.go)
// injected both up front and from callbacks — and requires the kernel running
// the chains through ReserveSeq/AtArgSeq to fire the exact sequence the
// oracle fires with every chain item armed at injection.
func FuzzAtArgSeqLockstep(f *testing.F) {
	f.Add([]byte{1, 3, 10, 20, 30, 5, 5, 200})
	f.Add([]byte{0, 0, 0, 255, 255})
	f.Add([]byte{7, 1, 9})
	f.Add([]byte{3, 7, 11, 2, 15, 6, 3, 3, 19, 4, 250, 7})
	f.Fuzz(func(t *testing.T, deltas []byte) {
		if len(deltas) == 0 || len(deltas) > 256 {
			t.Skip()
		}
		run := func(chained bool) []int {
			k := NewKernel()
			var order []int
			chains := [2]*chain{{k: k, chained: chained}, {k: k, chained: chained}}
			for _, c := range chains {
				c.fired = func(id int) { order = append(order, id) }
			}
			at := Time(0)
			for i, d := range deltas {
				i := i
				at += Time(d) * 3
				if d&3 == 3 {
					// Reserve now, fire at or after this point of the program.
					chains[d>>2&1].inject(at, 2000+i)
					continue
				}
				k.At(at, func() {
					order = append(order, i)
					switch {
					case deltas[i]&3 == 1:
						// Reserve from inside a callback, as a delivery does.
						chains[i&1].inject(k.Now()+Time(deltas[i]>>2), 3000+i)
					case i%2 == 0:
						k.After(Time(int(deltas[i])%11+1), func() {
							order = append(order, 1000+i)
						})
					}
				})
			}
			k.Run()
			return order
		}
		want := run(false)
		got := run(true)
		if len(got) != len(want) {
			t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order diverges at %d: got %d want %d", i, got[i], want[i])
			}
		}
	})
}

// TestWitnessSeesSpawnOrder: two processes that wake at the same instant are
// resumed in spawn order, under keys that do not say which process each
// resume belongs to. Spawning them in the other order fires the same keys
// with the same handlers, so only the process names folded into the digest
// tell the two runs apart.
func TestWitnessSeesSpawnOrder(t *testing.T) {
	run := func(names ...string) (uint64, []Fired) {
		k := NewKernel()
		for _, name := range names {
			k.Spawn(name, func(p *Proc) { p.Wait(5) })
		}
		var fired []Fired
		for k.RunUntilN(Forever, 1) == 1 {
			_, last := k.Witness()
			fired = append(fired, last)
		}
		k.Finish()
		d, _ := k.Witness()
		return d, fired
	}
	ab, abFired := run("a", "b")
	ba, baFired := run("b", "a")
	if len(abFired) != 4 || len(baFired) != 4 {
		t.Fatalf("fired %d and %d events, want 4 each (two starts, two resumes)", len(abFired), len(baFired))
	}
	for i := range abFired {
		a, b := abFired[i], baFired[i]
		if a.At != b.At || a.Seq != b.Seq || a.PC != b.PC {
			t.Fatalf("event %d: %v against %v; the two orders should differ only in process names", i, a, b)
		}
	}
	if abFired[2].Proc != "a" || baFired[2].Proc != "b" || !strings.HasSuffix(abFired[2].Handler(), "sim.fireResume") {
		t.Errorf("first resume is %v and %v, want sim.fireResume of a, then of b", abFired[2], baFired[2])
	}
	if ab == ba {
		t.Errorf("swapped spawn order left the digest at %#x", ab)
	}
	if again, _ := run("a", "b"); again != ab {
		t.Errorf("a repeat of the run digests to %#x, the first gave %#x", again, ab)
	}
}
