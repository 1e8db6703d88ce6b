package cluster

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/snapshot"
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

// section returns one component's image from s by name.
func section(s *snapshot.Snapshot, name string) ([]byte, bool) {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec.Data, true
		}
	}
	return nil, false
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
// the managed pump, capturing every `every` of virtual time; each pass must
// finish with the Report want (the unmanaged run's, as JSON), capture on the
// grid with consecutive ordinals, and the second pass must be in the first's
// state at every boundary. It returns the capture instants.
func audited(t *testing.T, cfg Config, every sim.Time, body func(*Node), want string) []sim.Time {
	t.Helper()
	var ats []sim.Time
	pass := 0
	n, err := snapshot.Audit(func(sink func(*snapshot.Snapshot) error) error {
		pass++
		cp := &Checkpoint{Every: every}
		cp.Sink = func(s *snapshot.Snapshot) error {
			if s.Header.At%every != 0 || s.Header.Seq != uint64(cp.Taken) {
				t.Errorf("pass %d: snapshot %d at %v has Seq %d or is off the boundary grid",
					pass, cp.Taken, s.Header.At, s.Header.Seq)
			}
			if pass == 1 {
				ats = append(ats, s.Header.At)
			}
			return sink(s)
		}
		cfg.Checkpoint = cp
		rep := Run(cfg, body)
		if cp.Err != nil {
			return cp.Err
		}
		if rep.Partial {
			t.Errorf("pass %d: managed run reported Partial on normal completion", pass)
		}
		if got := reportJSON(t, rep); got != want {
			t.Errorf("pass %d: managed Report differs from unmanaged:\n got %s\nwant %s", pass, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("determinism audit: %v", err)
	}
	if n != len(ats) || n < 2 {
		t.Fatalf("audit compared %d boundaries, first pass captured %d; want the same and >= 2", n, len(ats))
	}
	return ats
}

// TestManagedReportMatchesUnmanaged is the core determinism contract: a
// managed run (stepped pump + snapshot capture) must produce a Report
// byte-identical to the plain Kernel.Run path, with the invariant checker
// live on both sides, and a repeat of it must pass through the same states.
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
// audit — one component perturbed at one instant — and requires the audit to
// fail with a MismatchError naming that component's section at the first
// boundary after the instant, having passed every boundary before it.
func TestAuditNamesFirstDivergence(t *testing.T) {
	const every = 2 * sim.Microsecond
	for _, tc := range []struct {
		name, section string
		perturb       func(n *Node)
	}{
		// Nothing in ckptBody draws from the node RNG, so one extra draw moves
		// the "rng" image and no other.
		{"rng draw", "section:rng", func(n *Node) { n.RNG.Uint64() }},
		// A symmetric-heap allocation moves the endpoint's cursor, which only
		// the "dv" image holds.
		{"heap alloc", "section:dv", func(n *Node) { n.DV.Alloc(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pass, passed := 0, 0
			var perturbedAt sim.Time
			_, err := snapshot.Audit(func(sink func(*snapshot.Snapshot) error) error {
				pass++
				cp := &Checkpoint{Every: every, Sink: func(s *snapshot.Snapshot) error {
					err := sink(s)
					if pass == 2 && err == nil {
						passed++
					}
					return err
				}}
				cfg := DefaultConfig(4)
				cfg.Checkpoint = cp
				Run(cfg, func(n *Node) {
					for r := 0; r < 40; r++ {
						if pass == 2 && n.ID == 0 && r == 25 {
							perturbedAt = n.P.Now()
							tc.perturb(n)
						}
						n.DV.Put(vic.DMACached, (n.ID+1)%4, uint32(64+r%32), vic.NoGC, []uint64{uint64(r)})
						n.Compute(200 * sim.Nanosecond)
					}
					n.MPI.Barrier()
				})
				return cp.Err
			})
			var me *snapshot.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("got %v, want *snapshot.MismatchError", err)
			}
			// A boundary holds every event with a timestamp <= its instant.
			want := (perturbedAt + every - 1) / every * every
			if me.Field != tc.section || me.At != want {
				t.Errorf("audit failed on %s at %v, want %s at %v (perturbed at %v)",
					me.Field, me.At, tc.section, want, perturbedAt)
			}
			if int(want/every)-1 != passed || passed == 0 {
				t.Errorf("%d boundaries passed before the failure at %v, want %d", passed, want, int(want/every)-1)
			}
		})
	}
}

// TestVirtualBudget: the watchdog ends the run at the virtual budget with a
// typed error and a partial Report, having captured only the boundaries
// before the cut.
func TestVirtualBudget(t *testing.T) {
	cfg := DefaultConfig(4)
	if base := Run(cfg, ckptBody); base.Elapsed <= 4*sim.Microsecond {
		t.Fatalf("workload too short for the budget test: %v", base.Elapsed)
	}

	var snaps []*snapshot.Snapshot
	cp := &Checkpoint{
		Every:         2 * sim.Microsecond,
		VirtualBudget: 3 * sim.Microsecond,
		Sink:          func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
	cfg.Checkpoint = cp
	rep := Run(cfg, ckptBody)
	var be *BudgetExceededError
	if !errors.As(cp.Err, &be) || be.Budget != "virtual" {
		t.Fatalf("got %v, want virtual BudgetExceededError", cp.Err)
	}
	if !rep.Partial {
		t.Fatal("budgeted run must report Partial")
	}
	if be.At != 3*sim.Microsecond {
		t.Errorf("budget cut at %v, want 3µs", be.At)
	}
	if len(snaps) != 1 || cp.Taken != 1 || snaps[0].Header.At != 2*sim.Microsecond {
		t.Errorf("cut run captured %d snapshots (Taken %d), want the one boundary before the budget", len(snaps), cp.Taken)
	}
}

// TestWallBudgetAndInterrupt: both cut causes end the run at a clean virtual
// instant with the matching typed error, and capture nothing — a wall-cut
// instant is not reproducible, so its image could be compared with nothing.
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
			var snaps []*snapshot.Snapshot
			cp := &Checkpoint{
				Sink: func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
			tc.setup(cp)
			cfg := DefaultConfig(4)
			cfg.Checkpoint = cp
			rep := Run(cfg, ckptBody)
			var be *BudgetExceededError
			if !errors.As(cp.Err, &be) || be.Budget != tc.name {
				t.Fatalf("got %v, want %s BudgetExceededError", cp.Err, tc.name)
			}
			if !rep.Partial {
				t.Fatal("cut run must report Partial")
			}
			if len(snaps) != 0 {
				t.Fatalf("cut run captured %d snapshots, want none", len(snaps))
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

// TestFaultWindowRoundTrip captures in the middle of an active fault window
// and audits the run: the fault RNG stream positions are part of the captured
// fabric state, so a repeat must agree with them at every boundary, and the
// managed Reports must match the straight-through run's. Both the fast model
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
				t.Fatal("no snapshot landed inside the fault window")
			}
		})
	}
}

// TestDenseSparseSnapshotIdentity: the dense and sparse cycle-accurate
// steppers must produce byte-identical fabric state sections — the snapshot
// encoding is canonical (dense-scan order) precisely so this holds.
func TestDenseSparseSnapshotIdentity(t *testing.T) {
	run := func(dense bool) ([]*snapshot.Snapshot, string) {
		cfg := DefaultConfig(4)
		cfg.CycleAccurate = true
		cfg.denseSwitch = dense
		var snaps []*snapshot.Snapshot
		cp := &Checkpoint{Every: 2 * sim.Microsecond,
			Sink: func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
		cfg.Checkpoint = cp
		rep := Run(cfg, ckptBody)
		if cp.Err != nil {
			t.Fatalf("dense=%t run: %v", dense, cp.Err)
		}
		js := reportJSON(t, rep)
		return snaps, js
	}
	sparse, sparseRep := run(false)
	dense, denseRep := run(true)
	if len(sparse) != len(dense) || len(sparse) == 0 {
		t.Fatalf("snapshot counts differ: sparse %d, dense %d", len(sparse), len(dense))
	}
	for i := range sparse {
		for _, name := range []string{"dvswitch", "vic", "dv", "rng", "ib"} {
			a, okA := section(sparse[i], name)
			b, okB := section(dense[i], name)
			if okA != okB {
				t.Fatalf("snapshot %d: section %s present=%t vs %t", i, name, okA, okB)
			}
			if string(a) != string(b) {
				t.Errorf("snapshot %d: section %s differs between steppers (%d vs %d bytes)",
					i, name, len(a), len(b))
			}
		}
	}
	// The Reports differ only through no field at all: elapsed times, stats,
	// and telemetry are identical because the steppers are bit-identical.
	if sparseRep != denseRep {
		t.Errorf("dense and sparse Reports differ:\n%s\n%s", sparseRep, denseRep)
	}
}
