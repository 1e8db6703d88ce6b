package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestWaitUntil drives one gate through scripted releases with every kind of
// waiter queued on it. Waiters are "plain" (Wait), "timed" (WaitTimeout, 1 µs)
// or "until:<flag>" (WaitUntil on a named flag) and park in the order listed,
// at time zero. Step i runs at i×10 ns: it flips flags ("set:a", "clear:a")
// and releases ("signal", "broadcast"). want lists who resumed, in order, as
// waiter@nanoseconds.
func TestWaitUntil(t *testing.T) {
	cases := []struct {
		name    string
		waiters []string
		steps   []string
		want    string
		parked  int // still on the gate when Run ends
	}{
		{
			name:    "broadcasts pass over an unready waiter, then wake it once",
			waiters: []string{"until:a"},
			steps:   []string{"broadcast", "broadcast", "signal", "broadcast", "set:a broadcast", "broadcast"},
			want:    "0@40",
		},
		{
			name:    "already true: no park",
			waiters: []string{"until:a"},
			steps:   []string{"set:a"}, // step 0 runs before the waiters start
			want:    "0@0",
		},
		{
			name:    "broadcast keeps unready waiters queued in their order",
			waiters: []string{"plain", "until:a", "timed", "until:b", "plain", "until:a"},
			steps:   []string{"", "broadcast", "set:b signal", "signal", "set:a broadcast"},
			want:    "0@10 2@10 4@10 3@20 1@40 5@40",
		},
		{
			name:    "signal skips unready waiters and takes the oldest that can go",
			waiters: []string{"until:a", "plain", "until:b", "timed", "until:a"},
			steps:   []string{"", "signal", "signal", "signal", "set:a signal", "signal", "set:b signal"},
			want:    "1@10 3@20 0@40 4@50 2@60",
		},
		{
			name:    "a timed waiter behind unready ones times out; they stay",
			waiters: []string{"until:a", "timed", "until:b"},
			steps:   []string{"", "set:b"}, // no release: b is never looked at
			want:    "1@1000",
			parked:  2,
		},
		{
			name:    "condition undone before the wake-up fires: parks again",
			waiters: []string{"until:a", "plain"},
			steps:   []string{"", "set:a broadcast clear:a", "broadcast", "set:a broadcast"},
			want:    "1@10 0@30",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var g Gate
			flags := map[string]*bool{"a": new(bool), "b": new(bool)}
			var woke []string
			for i, step := range tc.steps {
				k.At(Time(i)*10*Nanosecond, func() {
					for _, op := range strings.Fields(step) {
						switch verb, flag, _ := strings.Cut(op, ":"); verb {
						case "set":
							*flags[flag] = true
						case "clear":
							*flags[flag] = false
						case "signal":
							g.Signal(k)
						case "broadcast":
							g.Broadcast(k)
						default:
							t.Fatalf("bad step %q", op)
						}
					}
				})
			}
			for i, kind := range tc.waiters {
				k.Spawn(fmt.Sprint("w", i), func(p *Proc) {
					switch verb, flag, _ := strings.Cut(kind, ":"); verb {
					case "plain":
						g.Wait(p)
					case "timed":
						g.WaitTimeout(p, Microsecond)
					case "until":
						ready := flags[flag]
						g.WaitUntil(p, func() bool { return *ready })
						if !*ready {
							t.Errorf("waiter %d returned from WaitUntil with its condition false", i)
						}
					}
					woke = append(woke, fmt.Sprintf("%d@%d", i, p.Now()/Nanosecond))
				})
			}
			k.RunUntil(Second)
			if got := strings.Join(woke, " "); got != tc.want {
				t.Errorf("resumed %q, want %q", got, tc.want)
			}
			if len(g.waiters) != tc.parked {
				t.Errorf("%d waiters left on the gate, want %d", len(g.waiters), tc.parked)
			}
			k.Finish()
			if k.LiveProcs() != 0 {
				t.Errorf("%d processes survived Finish", k.LiveProcs())
			}
		})
	}
}

// A release that finds a WaitUntil waiter unready must cost nothing: no
// event queued, no sequence number drawn, no process resumed. The release
// that finds it ready costs one of each.
func TestWaitUntilUnreadyReleaseSchedulesNothing(t *testing.T) {
	k := NewKernel()
	var g Gate
	ready := false
	k.Spawn("w", func(p *Proc) { g.WaitUntil(p, func() bool { return ready }) })
	k.RunUntil(0)
	if len(g.waiters) != 1 {
		t.Fatalf("waiter not parked: %d waiters", len(g.waiters))
	}
	seq, resumes := k.seq, k.nResumed
	for i := 0; i < 1000; i++ {
		g.Broadcast(k)
		g.Signal(k)
	}
	if k.seq != seq || len(k.q) != 0 || k.PendingUser() != 0 {
		t.Fatalf("unready releases scheduled: seq %d -> %d, %d queued", seq, k.seq, len(k.q))
	}
	ready = true
	g.Broadcast(k)
	g.Broadcast(k) // nobody left
	if k.seq != seq+1 || len(k.q) != 1 {
		t.Fatalf("ready release: seq %d -> %d, %d queued, want one event", seq, k.seq, len(k.q))
	}
	k.Run()
	if _, r := k.Counts(); r != resumes+1 {
		t.Fatalf("resumes %d -> %d, want exactly one more", resumes, r)
	}
	if k.LiveProcs() != 0 {
		t.Fatal("waiter did not finish")
	}
}

// Counts reports every fired event (daemons included, discarded ones not)
// and every switch into a process, its start included.
func TestKernelCounts(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { // start event + 3 wake-ups
		for i := 0; i < 3; i++ {
			p.Wait(10)
		}
	})
	k.At(5, func() {})
	k.AtDaemon(6, func() {})
	k.AtDaemon(1000, func() {}) // outlives the last user event: discarded
	k.Run()
	if ev, rs := k.Counts(); ev != 6 || rs != 4 {
		t.Fatalf("Counts() = %d events, %d resumes; want 6, 4", ev, rs)
	}
}

// A WaitTimeout waiter released by Signal or Broadcast must not leave its
// deadline behind as a user event: Run ends with the last real work, and a
// daemon ticker stops with it.
func TestWokenTimeoutDoesNotExtendRun(t *testing.T) {
	for _, release := range []string{"signal", "broadcast"} {
		t.Run(release, func(t *testing.T) {
			k := NewKernel()
			var g Gate
			released := false
			k.Spawn("w", func(p *Proc) { released = g.WaitTimeout(p, Second) })
			k.Spawn("s", func(p *Proc) {
				p.Wait(Microsecond)
				if release == "signal" {
					g.Signal(k)
				} else {
					g.Broadcast(k)
				}
			})
			ticks := 0
			var tick func()
			tick = func() { ticks++; k.AfterDaemon(Millisecond, tick) }
			k.AfterDaemon(Millisecond, tick)
			if end := k.Run(); end != Microsecond {
				t.Errorf("Run returned %v, want 1us: the dead deadline kept it alive", end)
			}
			if !released {
				t.Error("waiter reports a timeout")
			}
			if ticks != 0 {
				t.Errorf("1 ms daemon ticked %d times in a 1 us run", ticks)
			}
			if k.PendingUser() != 0 {
				t.Errorf("PendingUser() = %d after Run", k.PendingUser())
			}
		})
	}
}

// The demoted deadline still fires, as a no-op, when other work carries the
// run past it, and is counted out exactly once.
func TestWokenTimeoutFiresHarmlesslyLater(t *testing.T) {
	k := NewKernel()
	var g Gate
	var order []string
	k.Spawn("w", func(p *Proc) {
		if !g.WaitTimeout(p, 50) {
			t.Error("waiter reports a timeout")
		}
		order = append(order, fmt.Sprint("w@", int64(p.Now())))
		if g.WaitTimeout(p, 30) { // times out at 40, before the dead deadline
			t.Error("second wait reports a release")
		}
		order = append(order, fmt.Sprint("w@", int64(p.Now())))
	})
	k.Spawn("s", func(p *Proc) {
		p.Wait(10)
		g.Signal(k)
		p.Wait(90)
		order = append(order, fmt.Sprint("s@", int64(p.Now())))
	})
	if end := k.Run(); end != 100 {
		t.Errorf("Run returned %v, want 100ps", end)
	}
	if want := []string{"w@10", "w@40", "s@100"}; !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if k.PendingUser() != 0 || len(k.q) != 0 {
		t.Errorf("after Run: %d user events, %d queued", k.PendingUser(), len(k.q))
	}
}
