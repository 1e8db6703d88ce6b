package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestWaitUntil drives waiters through scripted releases, each parked on its
// own gate. Waiters are "plain" (Wait), "timed" (WaitTimeout, 1 µs) or
// "until:<flag>" (a Wait loop on a named flag) and park in the order listed,
// at time zero. Step i runs at i×10 ns: it flips flags ("set:a", "clear:a")
// and signals every waiter's gate ("signal"). want lists who returned, in
// order, as waiter@nanoseconds.
func TestWaitUntil(t *testing.T) {
	cases := []struct {
		name    string
		waiters []string
		steps   []string
		want    string
		parked  int // still on their gates when Run ends
	}{
		{
			name:    "already true: no park",
			waiters: []string{"until:a"},
			steps:   []string{"set:a"}, // step 0 runs before the waiters start
			want:    "0@0",
		},
		{
			name:    "a timed waiter behind unready ones times out; they stay",
			waiters: []string{"until:a", "timed", "until:b"},
			steps:   []string{"", "set:b"}, // no signal: b's waiter never wakes to see it
			want:    "1@1000",
			parked:  2,
		},
		{
			name:    "condition undone before the wake-up fires: parks again",
			waiters: []string{"until:a", "plain"},
			steps:   []string{"", "set:a signal clear:a", "signal", "set:a signal"},
			want:    "1@10 0@30",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			gates := make([]Gate, len(tc.waiters))
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
							for i := range gates {
								gates[i].Signal(k)
							}
						default:
							t.Fatalf("bad step %q", op)
						}
					}
				})
			}
			for i, kind := range tc.waiters {
				g := &gates[i]
				k.Spawn(fmt.Sprint("w", i), func(p *Proc) {
					switch verb, flag, _ := strings.Cut(kind, ":"); verb {
					case "plain":
						g.Wait(p)
					case "timed":
						g.WaitTimeout(p, Microsecond)
					case "until":
						for ready := flags[flag]; !*ready; {
							g.Wait(p)
						}
					}
					woke = append(woke, fmt.Sprintf("%d@%d", i, p.Now()/Nanosecond))
				})
			}
			k.RunUntil(Second)
			if got := strings.Join(woke, " "); got != tc.want {
				t.Errorf("resumed %q, want %q", got, tc.want)
			}
			parked := 0
			for _, g := range gates {
				if g.w != nil {
					parked++
				}
			}
			if parked != tc.parked {
				t.Errorf("%d waiters left on their gates, want %d", parked, tc.parked)
			}
			k.Finish()
			if k.LiveProcs() != 0 {
				t.Errorf("%d processes survived Finish", k.LiveProcs())
			}
		})
	}
}

// gateRun spawns a process named "waiter" that runs wait on g and logs what
// it returned and when, signals g from kernel events at the given instants
// (queued before the waiter starts), and runs the kernel. It returns the
// log and the instant Run returned.
func gateRun(wait func(p *Proc, g *Gate) string, signals []Time) (log string, end Time) {
	k := NewKernel()
	var g Gate
	for _, at := range signals {
		k.At(at, func() { g.Signal(k) })
	}
	k.Spawn("waiter", func(p *Proc) {
		got := wait(p, &g)
		log = fmt.Sprintf("%s@%d", got, p.Now())
	})
	return log, k.Run()
}

// TestGate_Valid: one process at a time waits on a gate, through each of
// Wait, WaitTimeout and a chain's Await. A release ends its wait at the
// release instant; a WaitTimeout deadline that a release beat is a daemon
// and does not carry Run past the release; a Signal with nobody waiting is
// not remembered.
func TestGate_Valid(t *testing.T) {
	tests := []struct {
		name    string
		wait    func(p *Proc, g *Gate) string
		signals []Time
		want    string // what wait returned, @ picoseconds
		end     Time   // what Run returned
	}{
		{"Wait", func(p *Proc, g *Gate) string { g.Wait(p); return "woken" }, []Time{10}, "woken@10", 10},
		{"WaitTimeout released before its deadline",
			func(p *Proc, g *Gate) string { return fmt.Sprint(g.WaitTimeout(p, 50)) }, []Time{10}, "true@10", 10},
		{"WaitTimeout released after its deadline",
			func(p *Proc, g *Gate) string { return fmt.Sprint(g.WaitTimeout(p, 50)) }, []Time{80}, "false@50", 80},
		{"WaitTimeout released at its deadline by a Signal queued first",
			func(p *Proc, g *Gate) string { return fmt.Sprint(g.WaitTimeout(p, 50)) }, []Time{50}, "true@50", 50},
		{"WaitTimeout for ever",
			func(p *Proc, g *Gate) string { return fmt.Sprint(g.WaitTimeout(p, Forever)) }, []Time{10}, "true@10", 10},
		{"Await in a chain", func(p *Proc, g *Gate) string {
			p.Chain(&steps{p: p, fs: []func(*Proc) (Time, bool){
				func(p *Proc) (Time, bool) { g.Await(p); return 0, true },
				func(*Proc) (Time, bool) { return 5, false },
			}})
			return "chained"
		}, []Time{10}, "chained@15", 15},
		{"one waiter after another on one gate",
			func(p *Proc, g *Gate) string { g.Wait(p); g.Wait(p); return "woken" }, []Time{10, 20}, "woken@20", 20},
		{"a Signal with nobody waiting is not remembered",
			func(p *Proc, g *Gate) string { p.Wait(20); return fmt.Sprint(g.WaitTimeout(p, 10)) }, []Time{10}, "false@30", 30},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if log, end := gateRun(tt.wait, tt.signals); log != tt.want || end != tt.end {
				t.Errorf("waiter returned %q and Run %v, want %q and %v", log, end, tt.want, tt.end)
			}
		})
	}
}

// TestGate_Invalid: a gate has one waiter. A second process that parks on it
// while the first waits, through any of the three forms, panics with a
// message naming both processes; and Await outside a Chain step panics
// rather than queue a process that keeps running.
func TestGate_Invalid(t *testing.T) {
	forms := []struct {
		name string
		park func(p *Proc, g *Gate)
	}{
		{"Wait", func(p *Proc, g *Gate) { g.Wait(p) }},
		{"WaitTimeout", func(p *Proc, g *Gate) { g.WaitTimeout(p, Second) }},
		{"Await", func(p *Proc, g *Gate) {
			p.Chain(&steps{p: p, fs: []func(*Proc) (Time, bool){
				func(p *Proc) (Time, bool) { g.Await(p); return 0, false },
			}})
		}},
	}
	type row struct {
		name          string
		first, second func(p *Proc, g *Gate) // second is nil: no second process
		want          []string
	}
	var tests []row
	for _, a := range forms {
		for _, b := range forms {
			tests = append(tests, row{a.name + " then " + b.name, a.park, b.park,
				[]string{`"second"`, `"first"`, "one waiter"}})
		}
	}
	tests = append(tests, row{"Await outside a Chain step",
		func(p *Proc, g *Gate) { g.Await(p) }, nil, []string{"outside a Chain step"}})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := NewKernel()
			var g Gate
			k.Spawn("first", func(p *Proc) { tt.first(p, &g) })
			if tt.second != nil {
				k.Spawn("second", func(p *Proc) { tt.second(p, &g) })
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				k.Run()
				return nil
			}()
			for _, w := range tt.want {
				if !strings.Contains(fmt.Sprint(got), w) {
					t.Fatalf("recovered %v, want a panic containing %s", got, w)
				}
			}
			k.Finish()
			if k.LiveProcs() != 0 {
				t.Errorf("%d processes survived Finish", k.LiveProcs())
			}
		})
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

// A WaitTimeout waiter released by Signal, from a process or from a kernel
// event, must not leave its deadline behind as a user event: Run ends with
// the last real work, and a daemon ticker stops with it.
func TestWokenTimeoutDoesNotExtendRun(t *testing.T) {
	for _, release := range []string{"signal", "signal from an event"} {
		t.Run(release, func(t *testing.T) {
			k := NewKernel()
			var g Gate
			released := false
			k.Spawn("w", func(p *Proc) { released = g.WaitTimeout(p, Second) })
			if release == "signal" {
				k.Spawn("s", func(p *Proc) {
					p.Wait(Microsecond)
					g.Signal(k)
				})
			} else {
				k.At(Microsecond, func() { g.Signal(k) })
			}
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
