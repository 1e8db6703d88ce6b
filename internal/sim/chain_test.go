package sim

import (
	"fmt"
	"strings"
	"testing"
)

// link is one step of a chain script: the wait the step returns and, when
// at >= 0, an At event the step schedules at now+at on the way. A link with
// gate g > 0 is a gate step: it also schedules, at now+rel, a release that
// leaves a token on the gate of process id+g-1 (its own, or the next one's,
// modulo the process count) and Signals it, and before its wait the process
// takes a token from its own gate, waiting on the gate while there is none.
// Every release also Signals the releasing process's own gate: when the
// token went to the next gate, that waiter wakes, finds none and waits again.
type link struct {
	wait, at Time
	gate     int
	rel      Time
}

// chainEnv is what every script of one run shares: the kernel, one word of
// state each step and each scheduled event reads and rewrites, each
// process's gate and tokens, and the log.
type chainEnv struct {
	k      *Kernel
	shared uint64
	gates  []Gate
	tokens []int
	log    strings.Builder
}

// script runs its links as a Stepper; the plain loop calls the same Step.
type script struct {
	id      int
	links   []link
	i       int
	env     *chainEnv
	p       *Proc
	chained bool

	// Whether a gate step's token is still to take, and the wait and more
	// its Step returns once it has.
	gate bool
	wait Time
	more bool
}

func (s *script) Step() (Time, bool) {
	if s.gate { // a chained gate wait, continued from its wake
		return s.takeOrAwait()
	}
	e, l, i := s.env, s.links[s.i], s.i
	e.shared = e.shared*31 + uint64(s.id*100+i)
	fmt.Fprintf(&e.log, "p%d.%d@%d:%d ", s.id, i, e.k.Now(), e.shared)
	if l.at >= 0 {
		id := s.id
		e.k.At(e.k.Now()+l.at, func() {
			e.shared ^= uint64(id<<8 | i)
			fmt.Fprintf(&e.log, "a%d.%d@%d:%d ", id, i, e.k.Now(), e.shared)
		})
	}
	s.i++
	if l.gate == 0 {
		return l.wait, s.i < len(s.links)
	}
	g := (s.id + l.gate - 1) % len(e.gates)
	e.k.At(e.k.Now()+l.rel, func() {
		e.tokens[g]++
		fmt.Fprintf(&e.log, "r%d@%d:%d ", g, e.k.Now(), e.tokens[g])
		e.gates[g].Signal(e.k)
		e.gates[s.id].Signal(e.k)
	})
	s.gate, s.wait, s.more = true, l.wait, s.i < len(s.links)
	if s.chained {
		return s.takeOrAwait()
	}
	return s.wait, s.more // the loop takes the token (see runScripts)
}

// take takes a token from the process's own gate, if one is there.
func (s *script) take() bool {
	e := s.env
	if e.tokens[s.id] == 0 {
		return false
	}
	e.tokens[s.id]--
	s.gate = false
	fmt.Fprintf(&e.log, "p%d.take@%d:%d ", s.id, e.k.Now(), e.tokens[s.id])
	return true
}

// takeOrAwait is the chained gate step: the token and the step's wait, or
// the process's gate awaited while there is no token.
func (s *script) takeOrAwait() (Time, bool) {
	if !s.take() {
		s.env.gates[s.id].Await(s.p)
		return 0, true
	}
	return s.wait, s.more
}

// runScripts runs one process per script, each as a plain
// for { step; Wait(d) } loop (a gate step's token taken in a Gate.Wait loop)
// or as one Chain, one event at a time, and logs every step, every scheduled
// event and the queue fingerprint after each event. It returns the log, the
// kernel's counts and, for the loop, the resumes a chain saves on it: one per
// park that returned, but the last of a process that ends (a process whose
// gate nobody signals again never does).
func runScripts(scripts [][]link, chained bool) (log []string, events, resumes, saved uint64) {
	k := NewKernel()
	env := &chainEnv{k: k, gates: make([]Gate, len(scripts)), tokens: make([]int, len(scripts))}
	for id, links := range scripts {
		s := &script{id: id, links: links, env: env, chained: chained}
		k.Spawn(fmt.Sprint("p", id), func(p *Proc) {
			s.p = p
			fmt.Fprintf(&env.log, "p%d.start@%d ", id, p.Now())
			parks, ended := uint64(0), false
			defer func() { // also when Finish unwinds a process left waiting
				if ended && parks > 0 {
					parks--
				}
				saved += parks
			}()
			if chained {
				p.Chain(s)
			} else {
				for {
					d, more := s.Step()
					if s.gate {
						for !s.take() {
							env.gates[id].Wait(p)
							parks++
						}
					}
					p.Wait(d)
					if d > 0 {
						parks++
					}
					if !more {
						break
					}
				}
			}
			env.shared += uint64(id) // the process's own statements after the chain
			fmt.Fprintf(&env.log, "p%d.end@%d:%d ", id, p.Now(), env.shared)
			ended = true
		})
	}
	for k.RunUntilN(Forever, 1) == 1 {
		n, fp := k.QueueFingerprint()
		fmt.Fprintf(&env.log, "q%d:%x", n, fp)
		log = append(log, env.log.String())
		env.log.Reset()
		if len(log) > maxLockstepEvents { // a chain that re-arms itself forever
			log = append(log, "runaway")
			break
		}
	}
	k.Finish()
	events, resumes = k.Counts()
	return log, events, resumes, saved
}

// maxLockstepEvents bounds a lockstep run, far above what any script fires,
// so that a kernel bug that spins at one instant fails the comparison
// instead of growing the log without end.
const maxLockstepEvents = 1 << 16

// checkChainLockstep runs scripts both ways and fails on the first event
// after which the two differ.
func checkChainLockstep(t *testing.T, scripts [][]link) {
	t.Helper()
	want, wantEv, wantRes, saved := runScripts(scripts, false)
	got, gotEv, gotRes, _ := runScripts(scripts, true)
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			t.Fatalf("after event %d:\n chain: %s\n  loop: %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("chain fired %d events, loop %d", len(got), len(want))
	}
	if gotEv != wantEv {
		t.Errorf("chain fired %d events by Counts, loop %d", gotEv, wantEv)
	}
	if gotRes != wantRes-saved {
		t.Errorf("chain made %d resumes, want the loop's %d less %d parks that did not end a process", gotRes, wantRes, saved)
	}
}

// TestChainMatchesWaitLoop: four processes run seeded random step scripts —
// zero waits, waits tied with each other's links, At events scheduled at the
// instants links end, gate steps whose releases tie with all of those and
// may leave their token for the next process instead — as a plain Wait loop
// and as Chain. Every event must leave the same log and the same queue
// behind.
func TestChainMatchesWaitLoop(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRNG(seed)
		scripts := make([][]link, 4)
		for i := range scripts {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				l := link{wait: Time(rng.Intn(4)) * 10, at: -1}
				switch rng.Intn(4) {
				case 0:
					l.at = l.wait // ties with the link's own end
				case 1:
					l.at = Time(rng.Intn(4)) * 10
				}
				if rng.Intn(3) == 0 {
					l.gate, l.rel = 1+rng.Intn(2), Time(rng.Intn(4))*10
				}
				scripts[i] = append(scripts[i], l)
			}
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkChainLockstep(t, scripts) })
	}
}

// FuzzChainLockstep is TestChainMatchesWaitLoop over arbitrary scripts: byte b
// appends a link to script b>>6 with wait (b&3)·10 ps and, when bit 2 is set,
// an At event (b>>3&7)·5 ps after the step. When bit 2 is clear, v = b>>3&7
// nonzero makes it a gate step whose release goes to the gate of the next
// process when v&1 is set (its own otherwise), (v>>1)·10 ps after the step.
func FuzzChainLockstep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x41, 0x46, 0x8c, 0xc0, 0xff})
	f.Add([]byte{0, 0, 4, 0x40, 0x40, 0x44})
	f.Add([]byte{0x15, 0x55, 0x95, 0xd5, 0x1d, 0x5d, 0x9d, 0xdd})
	f.Add([]byte{0x21, 0x61, 0xa0, 0xe1, 0x08, 0x48, 0x8a, 0xca})
	f.Add([]byte{0x11, 0x59, 0x33, 0x73, 0xb8, 0xf0, 0x19, 0x5b})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 128 {
			t.Skip()
		}
		scripts := make([][]link, 4)
		for _, b := range prog {
			l := link{wait: Time(b&3) * 10, at: -1}
			if v := int(b >> 3 & 7); b&4 != 0 {
				l.at = Time(v) * 5
			} else if v != 0 {
				l.gate, l.rel = 1+v&1, Time(v>>1)*10
			}
			scripts[b>>6] = append(scripts[b>>6], l)
		}
		for i, s := range scripts {
			if len(s) == 0 {
				scripts[i] = []link{{wait: 10, at: -1}}
			}
		}
		checkChainLockstep(t, scripts)
	})
}

// steps is a Stepper over step functions, for the table tests below.
type steps struct {
	p  *Proc
	fs []func(p *Proc) (Time, bool)
	i  int
}

func (s *steps) Step() (Time, bool) {
	s.i++
	return s.fs[s.i-1](s.p)
}

// TestChain_Valid: chains whose steps wait zero, end at once, call what does
// not block, or wait on a gate, end where the Wait loop would, with one
// resume for the whole chain.
func TestChain_Valid(t *testing.T) {
	var g, gs, gl, gt, gh Gate
	var pp Pipe
	wait := func(d Time, more bool) func(p *Proc) (Time, bool) {
		return func(*Proc) (Time, bool) { return d, more }
	}
	// await waits on gate g once (the gate rows release each gate once) and
	// goes on with the next step; held says the condition already holds.
	await := func(g *Gate, held bool, more bool) func(p *Proc) (Time, bool) {
		return func(p *Proc) (Time, bool) {
			if !held {
				g.Await(p)
			}
			return 0, more
		}
	}
	tests := []struct {
		name    string
		fs      []func(p *Proc) (Time, bool)
		setup   func(k *Kernel) // runs after the spawn, at time zero
		end     Time
		resumes uint64 // the start's included
	}{
		{"one step, no wait", []func(p *Proc) (Time, bool){wait(0, false)}, nil, 0, 1},
		{"one step, one wait", []func(p *Proc) (Time, bool){wait(10, false)}, nil, 10, 2},
		{"zero waits run inline", []func(p *Proc) (Time, bool){
			wait(0, true), wait(10, true), wait(0, true), wait(0, true), wait(5, false),
		}, nil, 15, 2},
		{"the last step waits zero", []func(p *Proc) (Time, bool){wait(10, true), wait(7, true), wait(0, false)}, nil, 17, 2},
		{"non-blocking calls in steps", []func(p *Proc) (Time, bool){
			func(p *Proc) (Time, bool) {
				p.Wait(0)
				p.WaitUntil(p.Now())
				return 10, true
			},
			func(p *Proc) (Time, bool) {
				g.Signal(p.k)
				pp.Occupy(p, 0)
				return pp.Reserve(p.k, 3) - p.Now(), false
			},
		}, nil, 13, 2},
		{"a gate released by Signal", []func(p *Proc) (Time, bool){await(&gs, false, true), wait(5, false)},
			func(k *Kernel) { k.At(10, func() { gs.Signal(k) }) }, 15, 2},
		{"the last step awaits a gate", []func(p *Proc) (Time, bool){wait(10, true), await(&gl, false, false)},
			func(k *Kernel) { k.At(20, func() { gl.Signal(k) }) }, 20, 2},
		{"a gate released at the instant a timed wait ends", []func(p *Proc) (Time, bool){
			wait(10, true), await(&gt, false, true), wait(5, false),
		}, func(k *Kernel) {
			// Queued behind the chain's wait, at the same instant.
			k.At(0, func() { k.At(10, func() { gt.Signal(k) }) })
		}, 15, 2},
		{"a condition that already holds does not wait", []func(p *Proc) (Time, bool){
			await(&gh, true, true), wait(5, false),
		}, nil, 5, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := NewKernel()
			var end Time = -1
			k.Spawn("c", func(p *Proc) {
				p.Chain(&steps{p: p, fs: tt.fs})
				end = p.Now()
			})
			if tt.setup != nil {
				tt.setup(k)
			}
			k.Run()
			if _, r := k.Counts(); end != tt.end || r != tt.resumes {
				t.Errorf("ended at %v with %d resumes, want %v and %d", end, r, tt.end, tt.resumes)
			}
		})
	}
}

// TestChain_Invalid: a step that would park its process panics with a message
// naming Chain, from every blocking primitive, whether it is the first step
// (on the process) or a later one (a kernel event); a negative step wait
// panics as Wait's does, and so do a second Gate.Await in one step and a
// nonzero wait beside one. The kernel can be finished afterwards.
func TestChain_Invalid(t *testing.T) {
	tests := []struct {
		name  string
		block func(p *Proc) Time // returns the step's wait
		want  string
	}{
		{"Proc.Wait", func(p *Proc) Time { p.Wait(1); return 0 }, "Chain"},
		{"Proc.WaitUntil", func(p *Proc) Time { p.WaitUntil(p.Now() + 1); return 0 }, "Chain"},
		{"Proc.Chain", func(p *Proc) Time { p.Chain(&steps{p: p, fs: []func(*Proc) (Time, bool){nil}}); return 0 }, "Chain"},
		{"Gate.Wait", func(p *Proc) Time { new(Gate).Wait(p); return 0 }, "Chain"},
		{"Gate.Wait after Gate.Await", func(p *Proc) Time { g := new(Gate); g.Await(p); g.Wait(p); return 0 }, "Chain"},
		{"Gate.Await twice", func(p *Proc) Time { new(Gate).Await(p); new(Gate).Await(p); return 0 }, "Chain step"},
		{"Gate.Await and a nonzero wait", func(p *Proc) Time { new(Gate).Await(p); return 1 }, "zero wait"},
		{"Gate.WaitTimeout", func(p *Proc) Time { new(Gate).WaitTimeout(p, 10); return 0 }, "Chain"},
		{"Pipe.Occupy", func(p *Proc) Time { new(Pipe).Occupy(p, 10); return 0 }, "Chain"},
		{"negative wait", func(p *Proc) Time { return -1 }, "negative wait"},
	}
	for _, tt := range tests {
		for _, first := range []bool{true, false} {
			where := map[bool]string{true: "first step", false: "later step"}[first]
			t.Run(tt.name+"/"+where, func(t *testing.T) {
				k := NewKernel()
				bad := func(p *Proc) (Time, bool) { return tt.block(p), true }
				fs := []func(*Proc) (Time, bool){bad}
				if !first {
					fs = []func(*Proc) (Time, bool){func(*Proc) (Time, bool) { return 10, true }, bad}
				}
				k.Spawn("c", func(p *Proc) { p.Chain(&steps{p: p, fs: fs}) })
				got := func() (r any) {
					defer func() { r = recover() }()
					k.Run()
					return nil
				}()
				if !strings.Contains(fmt.Sprint(got), tt.want) {
					t.Fatalf("recovered %v, want a panic containing %q", got, tt.want)
				}
				k.Finish()
				if k.LiveProcs() != 0 {
					t.Errorf("%d processes survived Finish", k.LiveProcs())
				}
			})
		}
	}
}
