package cluster

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

// ckptBody is the test workload: DV scatter traffic, MPI barriers, and
// compute pacing that stretches the run past several checkpoint boundaries.
func ckptBody(n *Node) {
	for r := 0; r < 40; r++ {
		dst := (n.ID + 1 + r%3) % 4
		n.DV.Put(vic.DMACached, dst, uint32(64+r%32), vic.NoGC,
			[]uint64{uint64(r)<<8 | uint64(n.ID)})
		n.Compute(200 * sim.Nanosecond)
		if r%10 == 9 {
			n.MPI.Barrier()
		}
	}
	n.MPI.Barrier()
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// audited is the determinism audit as tier-1 runs it: cfg runs twice under
// the managed pump, with boundaries every `every` of virtual time; each pass
// must finish with the Report want (the unmanaged run's, as JSON), the
// boundaries must sit on the grid, and the second pass must take the first's
// path. It returns the boundaries.
func audited(t *testing.T, cfg Config, every sim.Time, body func(*Node), want string) []sim.Time {
	t.Helper()
	pass := 0
	ats, err := Audit(every, func(cp *Checkpoint) (any, error) {
		pass++
		cfg.Checkpoint = cp
		rep := Run(cfg, body)
		if cp.Err != nil {
			return rep, nil
		}
		if rep.Partial {
			t.Errorf("pass %d: managed run reported Partial on normal completion", pass)
		}
		if got := reportJSON(t, rep); got != want {
			t.Errorf("pass %d: managed Report differs from unmanaged:\n got %s\nwant %s", pass, got, want)
		}
		return rep, nil
	})
	if err != nil {
		t.Fatalf("determinism audit: %v", err)
	}
	if len(ats) < 2 {
		t.Fatalf("audit compared %d boundaries; want >= 2", len(ats))
	}
	for _, at := range ats {
		if at%every != 0 {
			t.Errorf("boundary at %v is off the %v grid", at, every)
		}
	}
	return ats
}

// TestManagedReportMatchesUnmanaged is the core determinism contract: a
// managed run (stepped pump + witness at each boundary) must produce a Report
// byte-identical to the plain Kernel.Run path, with the invariant checker
// live on both sides, and a repeat of it must take the same path.
func TestManagedReportMatchesUnmanaged(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = check.All()
	base := Run(cfg, ckptBody)
	if !base.Checks.Ok() {
		t.Fatalf("unmanaged invariants: %v", base.Checks)
	}
	audited(t, cfg, 2*sim.Microsecond, ckptBody, reportJSON(t, base))
}

// TestAuditNamesFirstDivergence plants a divergence in the second pass of an
// audit (and in its re-run, the fourth call) at one instant, and requires the
// audit to fail with a MismatchError naming the part of the witness at the
// first boundary after the instant, having passed every boundary before it.
func TestAuditNamesFirstDivergence(t *testing.T) {
	const (
		every   = 2 * sim.Microsecond
		compute = 200 * sim.Nanosecond
	)
	for _, tc := range []struct {
		name string
		// draw is whether the perturbed node takes an extra random draw,
		// extra how much longer it computes; node 0 computes for long in
		// round 25 of both passes.
		draw        bool
		extra, long sim.Time
		// queued is whether the event is still queued at the boundary.
		queued bool
	}{
		// Nothing in the body draws from the node RNG, so one extra draw
		// moves node 0's stream and nothing else.
		{name: "rng draw", draw: true, long: compute},
		// One nanosecond more of compute moves node 0's wake-up: the queue
		// holds it at another time, then it fires at another time.
		{name: "compute 1ns longer", extra: sim.Nanosecond, long: compute},
		// A wait that spans a boundary is still queued there.
		{name: "compute 1ns longer across a boundary", extra: sim.Nanosecond, long: every + compute, queued: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pass := 0
			var perturbedAt sim.Time
			ats, err := Audit(every, func(cp *Checkpoint) (any, error) {
				pass++
				cfg := DefaultConfig(4)
				cfg.Checkpoint = cp
				return Run(cfg, func(n *Node) {
					for r := 0; r < 40; r++ {
						n.DV.Put(vic.DMACached, (n.ID+1)%4, uint32(64+r%32), vic.NoGC, []uint64{uint64(r)})
						d := compute
						if n.ID == 0 && r == 25 {
							d = tc.long
						}
						if pass%2 == 0 && n.ID == 0 && r == 25 {
							perturbedAt = n.P.Now()
							if tc.draw {
								n.RNG.Uint64()
							}
							d += tc.extra
						}
						n.Compute(d)
					}
					n.MPI.Barrier()
				}), nil
			})
			var me *MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("got %v, want *MismatchError", err)
			}
			// A boundary holds every event with a timestamp <= its instant.
			want := (perturbedAt + every - 1) / every * every
			if i := slices.Index(ats, want); i != int(want/every)-1 {
				t.Fatalf("the first pass crossed %v; want every boundary up to %v", ats, want)
			}
			if me.At != want {
				t.Errorf("audit failed at %v, want %v (perturbed at %v): %v", me.At, want, perturbedAt, err)
			}
			if tc.draw {
				if me.Part != "rng" || !strings.HasPrefix(me.Want, "node 0 ") || me.WantEvent != me.GotEvent {
					t.Errorf("got %v, want node 0's RNG stream and no event", err)
				}
				return
			}
			if part := map[bool]string{false: "events", true: "queue"}[tc.queued]; me.Part != part {
				t.Fatalf("audit failed on %q, want %q: %v", me.Part, part, err)
			}
			// The first pass woke node 0 a nanosecond before the second: that
			// event, fired or queued at the boundary, is where they part.
			ev := me.WantEvent
			if ev.At != perturbedAt+tc.long || ev.Seq == 0 || ev.Proc != "node0" || ev == me.GotEvent {
				t.Errorf("first differing event: want %v, got %v; want node0's wake-up at %v",
					ev, me.GotEvent, perturbedAt+tc.long)
			}
			if queued := ev.At > me.At; queued != tc.queued {
				t.Errorf("node0's wake-up at %v is queued at the boundary %v: %t, want %t", ev.At, me.At, queued, tc.queued)
			}
			if h := ev.Handler(); !strings.HasPrefix(h, "repro/internal/sim.") || !strings.Contains(err.Error(), h) {
				t.Errorf("handler %q is not a sim resume, or the error does not name it: %v", h, err)
			}
			t.Log(err)
		})
	}
}

// stepFunc is a Stepper over one function.
type stepFunc func() (sim.Time, bool)

func (f stepFunc) Step() (sim.Time, bool) { return f() }

// TestAuditWatchesHandlersAndNames: the kernel's stream holds neither which
// function an event runs nor what its process is called; the audit's OnFire
// watcher folds both. A second pass that parts from the first in one of them
// alone, under the same keys and the same stream, must fail the audit on the
// events part, naming the event.
func TestAuditWatchesHandlersAndNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		// chained is whether the second pass ends its worker's fourth wait
		// as a two-step Chain (fireChain where Wait has fireResume, at the
		// same key), renamed whether it spawns the worker under another
		// name.
		chained, renamed bool
		// at is the boundary the audit must fail at, event the time of the
		// first event the passes fire differently.
		at, event sim.Time
	}{
		{name: "handler", chained: true, at: 4 * sim.Microsecond, event: 4 * sim.Microsecond},
		{name: "process name", renamed: true, at: 2 * sim.Microsecond, event: sim.Microsecond},
	} {
		// worker is the run, as the first pass or as the second.
		worker := func(second bool) *sim.Kernel {
			k := sim.NewKernel()
			name := "worker"
			if second && tc.renamed {
				name = "renamed"
			}
			k.Spawn(name, func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					if second && tc.chained && i == 3 {
						more := true
						p.Chain(stepFunc(func() (sim.Time, bool) {
							if more {
								more = false
								return sim.Microsecond, true
							}
							return 0, false
						}))
						continue
					}
					p.Wait(sim.Microsecond)
				}
			})
			return k
		}
		t.Run(tc.name, func(t *testing.T) {
			first, second := worker(false), worker(true)
			first.Run()
			second.Run()
			if first.Stream() != second.Stream() {
				t.Fatalf("streams %#x and %#x: the passes should differ only in what the stream leaves out", first.Stream(), second.Stream())
			}
			pass := 0
			_, err := Audit(2*sim.Microsecond, func(cp *Checkpoint) (any, error) {
				pass++
				(&runState{k: worker(pass%2 == 0), cp: cp}).runManaged()
				return nil, nil
			})
			var me *MismatchError
			if !errors.As(err, &me) || me.Part != "events" || me.At != tc.at {
				t.Fatalf("got %v, want an events mismatch at %v", err, tc.at)
			}
			w, g := me.WantEvent, me.GotEvent
			if w.At != tc.event || w.At != g.At || w.Seq != g.Seq || (w.PC != g.PC) != tc.chained || (w.Proc != g.Proc) != tc.renamed {
				t.Errorf("first differing event: want %v, got %v; want one at %v that differs only in its %s", w, g, tc.event, tc.name)
			}
			t.Log(err)
		})
	}
}

// TestAuditThatComparesNothingFails: an audit whose interval is not
// positive, or whose first pass crosses no boundary, fails with a typed
// error naming the interval instead of passing on nothing.
func TestAuditThatComparesNothingFails(t *testing.T) {
	for _, every := range []sim.Time{0, -sim.Microsecond, sim.Second} {
		_, err := Audit(every, func(cp *Checkpoint) (any, error) {
			cfg := DefaultConfig(4)
			cfg.Checkpoint = cp
			return Run(cfg, ckptBody), nil
		})
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Checkpoint.Every" {
			t.Errorf("every %v: got %v, want a ConfigError on Checkpoint.Every", every, err)
		}
	}
}

// TestVirtualBudget: the watchdog ends the run at the virtual budget with a
// typed error and a partial Report, the audit having compared only the
// boundaries before the cut.
func TestVirtualBudget(t *testing.T) {
	cfg := DefaultConfig(4)
	if base := Run(cfg, ckptBody); base.Elapsed <= 4*sim.Microsecond {
		t.Fatalf("workload too short for the budget test: %v", base.Elapsed)
	}

	var rep *Report
	ats, err := Audit(2*sim.Microsecond, func(cp *Checkpoint) (any, error) {
		cp.VirtualBudget = 3 * sim.Microsecond
		cfg.Checkpoint = cp
		rep = Run(cfg, ckptBody)
		return rep, nil
	})
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Budget != "virtual" {
		t.Fatalf("got %v, want virtual BudgetExceededError", err)
	}
	if !rep.Partial {
		t.Fatal("budgeted run must report Partial")
	}
	if be.At != 3*sim.Microsecond {
		t.Errorf("budget cut at %v, want 3µs", be.At)
	}
	if !slices.Equal(ats, []sim.Time{2 * sim.Microsecond}) {
		t.Errorf("cut run crossed boundaries %v, want the one before the budget", ats)
	}
}

// TestWallBudgetAndInterrupt: both cut causes end the run at a clean virtual
// instant with the matching typed error, and take no witness — a wall-cut
// instant is not reproducible, so it could be compared with nothing.
func TestWallBudgetAndInterrupt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Checkpoint)
	}{
		{"wall", func(cp *Checkpoint) { cp.WallBudget = time.Nanosecond }},
		{"interrupt", func(cp *Checkpoint) {
			ch := make(chan struct{})
			close(ch)
			cp.Interrupt = ch
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rep *Report
			ats, err := Audit(2*sim.Microsecond, func(cp *Checkpoint) (any, error) {
				tc.setup(cp)
				cfg := DefaultConfig(4)
				cfg.Checkpoint = cp
				rep = Run(cfg, ckptBody)
				return rep, nil
			})
			var be *BudgetExceededError
			if !errors.As(err, &be) || be.Budget != tc.name {
				t.Fatalf("got %v, want %s BudgetExceededError", err, tc.name)
			}
			if !rep.Partial {
				t.Fatal("cut run must report Partial")
			}
			if len(ats) != 0 {
				t.Fatalf("cut run took witnesses at %v, want none", ats)
			}
			if rep.Elapsed != be.At {
				t.Errorf("cut bookkeeping disagrees: err at %v, elapsed %v", be.At, rep.Elapsed)
			}
		})
	}
}

// faultBody sends fire-and-forget DV traffic so probabilistic faults can
// drop packets without wedging anything, synchronising over InfiniBand.
func faultBody(n *Node) {
	for r := 0; r < 40; r++ {
		n.DV.Put(vic.DMACached, (n.ID+1)%4, uint32(64+r%32), vic.NoGC,
			[]uint64{uint64(r)<<8 | uint64(n.ID)})
		n.Compute(200 * sim.Nanosecond)
	}
	n.MPI.Barrier()
}

// TestFaultWindowRoundTrip audits a run with boundaries in the middle of an
// active fault window: every drop and corruption the fault RNG streams decide
// moves the events that follow, so a repeat must fire the same events, and
// the managed Reports must match the straight-through run's. Both the fast model
// and the cycle-accurate core are exercised.
func TestFaultWindowRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cycle  bool
		window faultplan.Window
	}{
		// The fast model interprets the window in virtual time directly.
		{"fastmodel", false, faultplan.Window{Start: 1 * sim.Microsecond, End: 6 * sim.Microsecond}},
		// The cycle core counts only busy cycles (lazy stepping), so a late
		// window start would never be reached under light traffic; a
		// whole-run window still advances the fault RNG streams across every
		// boundary, which is what the audit must see reproduced.
		{"cycle", true, faultplan.Window{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CycleAccurate = tc.cycle
			cfg.Faults = &faultplan.Plan{Seed: 7, DropProb: 0.05, CorruptProb: 0.02,
				Window: tc.window}
			base := Run(cfg, faultBody)
			if base.DVFabric.Dropped+base.DVFabric.Corrupted == 0 {
				t.Fatal("fault plan injected nothing; the audit would be vacuous")
			}
			ats := audited(t, cfg, 2*sim.Microsecond, faultBody, reportJSON(t, base))
			// Some boundary must sit strictly inside the fault window (for the
			// whole-run window, any boundary before the end qualifies).
			winLo, winHi := tc.window.Start, tc.window.End
			if winHi == 0 {
				winHi = base.Elapsed
			}
			if !slices.ContainsFunc(ats, func(at sim.Time) bool { return at > winLo && at < winHi }) {
				t.Fatal("no boundary landed inside the fault window")
			}
		})
	}
}

// TestDenseSparseSnapshotIdentity: the dense reference scan and the sparse
// stepper of the cycle-accurate core take the same path through a run. An
// audit whose first pass steps densely and whose second steps sparsely
// passes: the same events under the same keys and handlers, the same queue
// and RNG streams at every boundary, and deeply equal Reports.
func TestDenseSparseSnapshotIdentity(t *testing.T) {
	pass := 0
	ats, err := Audit(2*sim.Microsecond, func(cp *Checkpoint) (any, error) {
		pass++
		cfg := DefaultConfig(4)
		cfg.CycleAccurate = true
		cfg.denseSwitch = pass%2 == 1
		cfg.Checkpoint = cp
		return Run(cfg, ckptBody), nil
	})
	if err != nil {
		t.Fatalf("dense and sparse steppers part: %v", err)
	}
	if len(ats) < 2 {
		t.Fatalf("audit compared %d boundaries; want >= 2", len(ats))
	}
}
