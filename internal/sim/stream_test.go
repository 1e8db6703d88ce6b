package sim

import (
	"slices"
	"testing"
)

// streamCase is the script the Stream tests vary: two processes that wait,
// park on a gate each until one kernel event releases both, then chain two
// waits; two kernel events at one instant; and what each row changes.
type streamCase struct {
	names        [2]string
	late         Time // how much later the first kernel event fires
	swapWakes    bool // release the second process before the first
	swapHandlers bool // queue the two events at one instant the other way round
	extra        bool // queue one more event
}

var baseCase = streamCase{names: [2]string{"a", "b"}}

func (c streamCase) script(k *Kernel) {
	var g [2]Gate
	for i, name := range c.names {
		k.Spawn(name, func(p *Proc) {
			p.Wait(Time(5 + i))
			g[i].Wait(p)
			wait := func(d Time, more bool) func(*Proc) (Time, bool) {
				return func(*Proc) (Time, bool) { return d, more }
			}
			p.Chain(&steps{p: p, fs: []func(*Proc) (Time, bool){wait(3, true), wait(4, false)}})
		})
	}
	var ticks, tocks int
	tick, tock := func() { ticks++ }, func() { tocks++ }
	if c.swapHandlers {
		tick, tock = tock, tick
	}
	k.At(8+c.late, tick)
	k.At(8, tock)
	k.At(10, func() {
		if c.swapWakes {
			g[1].Signal(k)
			g[0].Signal(k)
			return
		}
		g[0].Signal(k)
		g[1].Signal(k)
	})
	if c.extra {
		k.At(30, func() {})
	}
}

// streamRun runs c on a fresh kernel through pump and returns its stream
// and every event the OnFire watcher was shown.
func streamRun(c streamCase, pump func(*Kernel)) (uint64, []Fired) {
	k := NewKernel()
	var seen []Fired
	k.OnFire(func(f Fired) { seen = append(seen, f) })
	c.script(k)
	pump(k)
	return k.Stream(), seen
}

func pumpRun(k *Kernel) { k.Run() }

// sameButNames reports whether a and b list the same events, keys and
// handlers alike, and differ in process names at least once.
func sameButNames(a, b []Fired) bool {
	renamed := false
	ok := slices.EqualFunc(a, b, func(x, y Fired) bool {
		renamed = renamed || x.Proc != y.Proc
		return x.At == y.At && x.Seq == y.Seq && x.PC == y.PC
	})
	return ok && renamed
}

// TestStream_Valid: however the kernel is pumped, and whatever its processes
// are called, one script folds to one stream. The watcher sees what the
// stream leaves out: handlers that swap at one instant and renamed
// processes.
func TestStream_Valid(t *testing.T) {
	want, wantSeen := streamRun(baseCase, pumpRun)
	renamed := baseCase
	renamed.names = [2]string{"x", "y"}
	swapped := baseCase
	swapped.swapHandlers = true
	for _, tc := range []struct {
		name string
		c    streamCase
		pump func(*Kernel)
		// seen tells what the watcher must have been shown, against the
		// base run's record.
		seen func(got []Fired) bool
	}{
		{name: "Run", c: baseCase, pump: pumpRun},
		{name: "RunUntil in 3 ps steps", c: baseCase, pump: func(k *Kernel) {
			for t := Time(0); k.PendingUser() > 0; t += 3 {
				k.RunUntil(t)
			}
			k.Finish()
		}},
		{name: "RunUntilN one event at a time", c: baseCase, pump: func(k *Kernel) {
			for k.RunUntilN(Forever, 1) == 1 {
			}
			k.Finish()
		}},
		{name: "processes renamed", c: renamed, pump: pumpRun,
			seen: func(got []Fired) bool { return sameButNames(wantSeen, got) }},
		{name: "two handlers swapped at one instant", c: swapped, pump: pumpRun,
			seen: func(got []Fired) bool {
				moved := 0
				for i := range got {
					if got[i].PC != wantSeen[i].PC {
						moved++
					}
				}
				return len(got) == len(wantSeen) && moved == 2
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, seen := streamRun(tc.c, tc.pump)
			if got != want {
				t.Errorf("stream %#x, want %#x", got, want)
			}
			if len(seen) != 13 {
				t.Errorf("watcher was shown %d events, want 13", len(seen))
			}
			if tc.seen == nil {
				if !slices.Equal(seen, wantSeen) {
					t.Errorf("watcher was shown\n%v\nwant\n%v", seen, wantSeen)
				}
			} else if !tc.seen(seen) {
				t.Errorf("watcher was shown\n%v\nagainst the base run's\n%v", seen, wantSeen)
			}
		})
	}
}

// TestStream_Invalid: a run that fires one event later, resumes two
// processes in the other order, or fires one more event moves the stream.
func TestStream_Invalid(t *testing.T) {
	base, _ := streamRun(baseCase, pumpRun)
	for _, tc := range []struct {
		name string
		edit func(*streamCase)
	}{
		{name: "one event 1 ps later", edit: func(c *streamCase) { c.late = 1 }},
		{name: "two resumes swapped", edit: func(c *streamCase) { c.swapWakes = true }},
		{name: "one extra event", edit: func(c *streamCase) { c.extra = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := baseCase
			tc.edit(&c)
			if got, _ := streamRun(c, pumpRun); got == base {
				t.Errorf("stream stayed at %#x", got)
			}
		})
	}
}

// TestWitnessSeesSpawnOrder states the split between the stream and the
// watcher. Two processes released at one instant resume in the order of
// their release, under keys that do not say which process each resume
// belongs to. The stream tells that order by spawn index: releasing them the
// other way round moves it. It does not hold names: spawning the processes
// under each other's names leaves it as it was, and only a watcher that
// reads Fired.Proc, as the determinism audit does, tells that run apart.
func TestWitnessSeesSpawnOrder(t *testing.T) {
	ab, abSeen := streamRun(baseCase, pumpRun)
	ba := baseCase
	ba.names = [2]string{"b", "a"}
	baStream, baSeen := streamRun(ba, pumpRun)
	if baStream != ab || !sameButNames(abSeen, baSeen) {
		t.Errorf("spawned under swapped names: stream %#x against %#x, watcher shown\n%v\nagainst\n%v", baStream, ab, baSeen, abSeen)
	}
	woken := baseCase
	woken.swapWakes = true
	wokenStream, wokenSeen := streamRun(woken, pumpRun)
	if wokenStream == ab || !sameButNames(abSeen, wokenSeen) {
		t.Errorf("released in the other order: stream %#x against %#x, watcher shown\n%v\nagainst\n%v", wokenStream, ab, wokenSeen, abSeen)
	}
	if again, _ := streamRun(baseCase, pumpRun); again != ab {
		t.Errorf("a repeat of the run streams to %#x, the first gave %#x", again, ab)
	}
}
