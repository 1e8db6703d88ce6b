package sim

import (
	"fmt"
	"strings"
	"testing"
)

// link is one step of a chain script: the wait the step returns and, when
// at >= 0, an At event the step schedules at now+at on the way.
type link struct {
	wait, at Time
}

// chainEnv is what every script of one run shares: the kernel, one word of
// state each step and each scheduled event reads and rewrites, and the log.
type chainEnv struct {
	k      *Kernel
	shared uint64
	log    strings.Builder
}

// script runs its links as a Stepper; the plain loop calls the same Step.
type script struct {
	id    int
	links []link
	i     int
	env   *chainEnv
}

func (s *script) Step() (Time, bool) {
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
	return l.wait, s.i < len(s.links)
}

// runScripts runs one process per script, each as a plain
// for { step; Wait(d) } loop or as one Chain, one event at a time, and logs
// every step, every scheduled event and the queue fingerprint after each
// event. It returns the log and the kernel's counts.
func runScripts(scripts [][]link, chained bool) (log []string, events, resumes uint64) {
	k := NewKernel()
	env := &chainEnv{k: k}
	for id, links := range scripts {
		s := &script{id: id, links: links, env: env}
		k.Spawn(fmt.Sprint("p", id), func(p *Proc) {
			fmt.Fprintf(&env.log, "p%d.start@%d ", id, p.Now())
			if chained {
				p.Chain(s)
			} else {
				for {
					d, more := s.Step()
					p.Wait(d)
					if !more {
						break
					}
				}
			}
			env.shared += uint64(id) // the process's own statements after the chain
			fmt.Fprintf(&env.log, "p%d.end@%d:%d ", id, p.Now(), env.shared)
		})
	}
	for k.RunUntilN(Forever, 1) == 1 {
		n, fp := k.QueueFingerprint()
		fmt.Fprintf(&env.log, "q%d:%x", n, fp)
		log = append(log, env.log.String())
		env.log.Reset()
	}
	k.Finish()
	events, resumes = k.Counts()
	return log, events, resumes
}

// savedResumes is how many resumes Chain saves over the plain loop: a resume
// per nonzero wait, but the one that ends the chain.
func savedResumes(scripts [][]link) uint64 {
	var saved uint64
	for _, links := range scripts {
		nz := uint64(0)
		for _, l := range links {
			if l.wait > 0 {
				nz++
			}
		}
		if nz > 0 {
			saved += nz - 1
		}
	}
	return saved
}

// checkChainLockstep runs scripts both ways and fails on the first event
// after which the two differ.
func checkChainLockstep(t *testing.T, scripts [][]link) {
	t.Helper()
	want, wantEv, wantRes := runScripts(scripts, false)
	got, gotEv, gotRes := runScripts(scripts, true)
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
	if saved := savedResumes(scripts); gotRes != wantRes-saved {
		t.Errorf("chain made %d resumes, want the loop's %d less %d non-final links", gotRes, wantRes, saved)
	}
}

// TestChainMatchesWaitLoop: four processes run seeded random step scripts —
// zero waits, waits tied with each other's links, At events scheduled at the
// instants links end — as a plain Wait loop and as Chain. Every event must
// leave the same log and the same queue behind.
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
				scripts[i] = append(scripts[i], l)
			}
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkChainLockstep(t, scripts) })
	}
}

// FuzzChainLockstep is TestChainMatchesWaitLoop over arbitrary scripts: byte b
// appends a link to script b>>6 with wait (b&3)·10 ps and, when bit 2 is set,
// an At event (b>>3&7)·5 ps after the step.
func FuzzChainLockstep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x41, 0x46, 0x8c, 0xc0, 0xff})
	f.Add([]byte{0, 0, 4, 0x40, 0x40, 0x44})
	f.Add([]byte{0x15, 0x55, 0x95, 0xd5, 0x1d, 0x5d, 0x9d, 0xdd})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 128 {
			t.Skip()
		}
		scripts := make([][]link, 4)
		for _, b := range prog {
			l := link{wait: Time(b&3) * 10, at: -1}
			if b&4 != 0 {
				l.at = Time(b>>3&7) * 5
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

// TestChain_Valid: chains whose steps wait zero, end at once, or call what
// does not block, end where the Wait loop would, with one resume for the
// whole chain.
func TestChain_Valid(t *testing.T) {
	var g Gate
	var q Queue[int]
	var pp Pipe
	wait := func(d Time, more bool) func(p *Proc) (Time, bool) {
		return func(*Proc) (Time, bool) { return d, more }
	}
	tests := []struct {
		name    string
		fs      []func(p *Proc) (Time, bool)
		end     Time
		resumes uint64 // the start's included
	}{
		{"one step, no wait", []func(p *Proc) (Time, bool){wait(0, false)}, 0, 1},
		{"one step, one wait", []func(p *Proc) (Time, bool){wait(10, false)}, 10, 2},
		{"zero waits run inline", []func(p *Proc) (Time, bool){
			wait(0, true), wait(10, true), wait(0, true), wait(0, true), wait(5, false),
		}, 15, 2},
		{"the last step waits zero", []func(p *Proc) (Time, bool){wait(10, true), wait(7, true), wait(0, false)}, 17, 2},
		{"non-blocking calls in steps", []func(p *Proc) (Time, bool){
			func(p *Proc) (Time, bool) {
				p.Wait(0)
				p.WaitUntil(p.Now())
				return 10, true
			},
			func(p *Proc) (Time, bool) {
				g.WaitUntil(p, func() bool { return true })
				g.Signal(p.k)
				q.Push(p.k, 1)
				q.TryPop()
				pp.Occupy(p, 0)
				return pp.Reserve(p.k, 3) - p.Now(), false
			},
		}, 13, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := NewKernel()
			var end Time = -1
			k.Spawn("c", func(p *Proc) {
				p.Chain(&steps{p: p, fs: tt.fs})
				end = p.Now()
			})
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
// panics as Wait's does. The kernel can be finished afterwards.
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
		{"Gate.WaitUntil", func(p *Proc) Time { new(Gate).WaitUntil(p, func() bool { return false }); return 0 }, "Chain"},
		{"Gate.WaitTimeout", func(p *Proc) Time { new(Gate).WaitTimeout(p, 10); return 0 }, "Chain"},
		{"Queue.PopTimeout", func(p *Proc) Time { new(Queue[int]).PopTimeout(p, 10); return 0 }, "Chain"},
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
