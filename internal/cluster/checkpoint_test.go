package cluster

import (
	"encoding/json"
	"errors"
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

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// TestManagedReportMatchesUnmanaged is the core determinism contract: a
// managed run (stepped pump + snapshot capture) must produce a Report
// byte-identical to the plain Kernel.Run path, with the invariant checker
// live on both sides.
func TestManagedReportMatchesUnmanaged(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = check.All()
	base := Run(cfg, ckptBody)
	if !base.Checks.Ok() {
		t.Fatalf("unmanaged invariants: %v", base.Checks)
	}
	baseJSON := reportJSON(t, base)

	var snaps []*snapshot.Snapshot
	cp := &Checkpoint{App: "ckpt-test", Net: "both", Every: 2 * sim.Microsecond,
		Sink: func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
	mcfg := cfg
	mcfg.Checkpoint = cp
	rep := Run(mcfg, ckptBody)
	if cp.Err != nil {
		t.Fatalf("managed run error: %v", cp.Err)
	}
	if rep.Partial {
		t.Fatal("managed run reported Partial on normal completion")
	}
	if got := reportJSON(t, rep); got != baseJSON {
		t.Errorf("managed Report differs from unmanaged:\n got %s\nwant %s", got, baseJSON)
	}
	if cp.Taken < 2 || len(snaps) != cp.Taken {
		t.Fatalf("expected >=2 periodic snapshots, got Taken=%d len=%d", cp.Taken, len(snaps))
	}
	for i, s := range snaps {
		if s.Header.At%cp.Every != 0 {
			t.Errorf("snapshot %d at %v is off the boundary grid", i, s.Header.At)
		}
		if s.Header.Seq != uint64(i) {
			t.Errorf("snapshot %d has Seq %d", i, s.Header.Seq)
		}
	}

	// Resume from a middle snapshot: the finished Report and every later
	// snapshot must be byte-identical to the straight-through managed run.
	mid := len(snaps) / 2
	var resnaps []*snapshot.Snapshot
	rcp := &Checkpoint{App: "ckpt-test", Net: "both", Resume: snaps[mid],
		Sink: func(s *snapshot.Snapshot) error { resnaps = append(resnaps, s); return nil }}
	rcfg := cfg
	rcfg.Checkpoint = rcp
	rrep := Run(rcfg, ckptBody)
	if rcp.Err != nil {
		t.Fatalf("resume error: %v", rcp.Err)
	}
	if got := reportJSON(t, rrep); got != baseJSON {
		t.Errorf("resumed Report differs from straight run:\n got %s\nwant %s", got, baseJSON)
	}
	want := snaps[mid+1:]
	if len(resnaps) != len(want) {
		t.Fatalf("resume wrote %d snapshots, straight run wrote %d past the restore point",
			len(resnaps), len(want))
	}
	for i := range want {
		if err := snapshot.Diff(want[i], resnaps[i]); err != nil {
			t.Errorf("post-resume snapshot %d diverges: %v", i, err)
		}
	}
}

// TestResumeValidation: a snapshot from a different run identity is rejected
// with a typed MismatchError before any replay happens.
func TestResumeValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	var snaps []*snapshot.Snapshot
	cp := &Checkpoint{App: "a", Net: "both", Every: 2 * sim.Microsecond,
		Sink: func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
	mcfg := cfg
	mcfg.Checkpoint = cp
	Run(mcfg, ckptBody)
	if cp.Err != nil || len(snaps) == 0 {
		t.Fatalf("producing run: err=%v snaps=%d", cp.Err, len(snaps))
	}

	cases := []struct {
		field string
		mut   func(*Config, *Checkpoint)
	}{
		{"app", func(c *Config, p *Checkpoint) { p.App = "b" }},
		{"seed", func(c *Config, p *Checkpoint) { c.Seed = 99 }},
		{"nodes", func(c *Config, p *Checkpoint) {}}, // nodes handled below
		{"config", func(c *Config, p *Checkpoint) { c.CycleAccurate = true }},
		{"faults", func(c *Config, p *Checkpoint) {
			c.Faults = &faultplan.Plan{Seed: 1, DropProb: 0.5}
		}},
	}
	for _, tc := range cases {
		if tc.field == "nodes" {
			continue // changing Nodes changes geometry digest too; covered by "config"
		}
		rcfg := cfg
		rcp := &Checkpoint{App: "a", Net: "both", Resume: snaps[0]}
		tc.mut(&rcfg, rcp)
		rcfg.Checkpoint = rcp
		rep := Run(rcfg, ckptBody)
		var me *snapshot.MismatchError
		if !errors.As(rcp.Err, &me) {
			t.Fatalf("%s: got %v, want *snapshot.MismatchError", tc.field, rcp.Err)
		}
		if me.Field != tc.field {
			t.Errorf("got field %q, want %q", me.Field, tc.field)
		}
		if !rep.Partial {
			t.Errorf("%s: rejected resume must yield a partial report", tc.field)
		}
	}
}

// TestVirtualBudget: the watchdog ends the run at the virtual budget with a
// final checkpoint and a typed error, and resuming from that checkpoint
// finishes with a Report byte-identical to an unbudgeted run.
func TestVirtualBudget(t *testing.T) {
	cfg := DefaultConfig(4)
	base := Run(cfg, ckptBody)
	baseJSON := reportJSON(t, base)
	if base.Elapsed <= 4*sim.Microsecond {
		t.Fatalf("workload too short for the budget test: %v", base.Elapsed)
	}

	var snaps []*snapshot.Snapshot
	cp := &Checkpoint{App: "vb", Net: "both",
		Every:         2 * sim.Microsecond,
		VirtualBudget: 3 * sim.Microsecond,
		Sink:          func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
	mcfg := cfg
	mcfg.Checkpoint = cp
	rep := Run(mcfg, ckptBody)
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
	final := snaps[len(snaps)-1]
	if final.Header.At != 3*sim.Microsecond {
		t.Errorf("final checkpoint at %v, want the budget time", final.Header.At)
	}
	if cp.LastAt != final.Header.At {
		t.Errorf("LastAt %v != final snapshot At %v", cp.LastAt, final.Header.At)
	}

	rcp := &Checkpoint{App: "vb", Net: "both", Resume: final}
	rcfg := cfg
	rcfg.Checkpoint = rcp
	rrep := Run(rcfg, ckptBody)
	if rcp.Err != nil {
		t.Fatalf("resume from budget checkpoint: %v", rcp.Err)
	}
	if got := reportJSON(t, rrep); got != baseJSON {
		t.Errorf("resume-then-finish differs from run-straight-through:\n got %s\nwant %s",
			got, baseJSON)
	}
}

// TestWallBudgetAndInterrupt: both cut causes end the run with a final
// checkpoint at a clean virtual instant and the matching typed error.
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
			cp := &Checkpoint{App: "w", Net: "both",
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
			if len(snaps) != 1 {
				t.Fatalf("cut run wrote %d snapshots, want exactly the final one", len(snaps))
			}
			if snaps[0].Header.At != be.At || rep.Elapsed != be.At {
				t.Errorf("cut bookkeeping disagrees: snap at %v, err at %v, elapsed %v",
					snaps[0].Header.At, be.At, rep.Elapsed)
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

// TestFaultWindowRoundTrip snapshots in the middle of an active fault window
// and verifies the remaining fault schedule is byte-identical after restore:
// the fault RNG stream positions are part of the captured fabric state, so
// later snapshots and the final Report must match the straight-through run.
// Both the fast model and the cycle-accurate core are exercised.
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
		// whole-run window still advances the fault RNG streams across the
		// restore point, which is what the round trip must preserve.
		{"cycle", true, faultplan.Window{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CycleAccurate = tc.cycle
			cfg.Faults = &faultplan.Plan{Seed: 7, DropProb: 0.05, CorruptProb: 0.02,
				Window: tc.window}
			base := Run(cfg, faultBody)
			baseJSON := reportJSON(t, base)
			if base.DVFabric.Dropped+base.DVFabric.Corrupted == 0 {
				t.Fatal("fault plan injected nothing; the round trip would be vacuous")
			}

			var snaps []*snapshot.Snapshot
			cp := &Checkpoint{App: "fw", Net: "both", Every: 2 * sim.Microsecond,
				Sink: func(s *snapshot.Snapshot) error { snaps = append(snaps, s); return nil }}
			mcfg := cfg
			mcfg.Checkpoint = cp
			rep := Run(mcfg, faultBody)
			if cp.Err != nil {
				t.Fatalf("managed faulty run: %v", cp.Err)
			}
			if got := reportJSON(t, rep); got != baseJSON {
				t.Errorf("managed faulty Report differs from unmanaged:\n got %s\nwant %s",
					got, baseJSON)
			}
			// Pick a snapshot strictly inside the fault window (for the
			// whole-run window, any snapshot before the end qualifies).
			winLo, winHi := tc.window.Start, tc.window.End
			if winHi == 0 {
				winHi = base.Elapsed
			}
			mid := -1
			for i, s := range snaps {
				if s.Header.At > winLo && s.Header.At < winHi {
					mid = i
				}
			}
			if mid < 0 {
				t.Fatal("no snapshot landed inside the fault window")
			}
			var resnaps []*snapshot.Snapshot
			rcp := &Checkpoint{App: "fw", Net: "both", Resume: snaps[mid],
				Sink: func(s *snapshot.Snapshot) error { resnaps = append(resnaps, s); return nil }}
			rcfg := cfg
			rcfg.Checkpoint = rcp
			rrep := Run(rcfg, faultBody)
			if rcp.Err != nil {
				t.Fatalf("resume mid-fault-window: %v", rcp.Err)
			}
			if got := reportJSON(t, rrep); got != baseJSON {
				t.Errorf("mid-window resume Report differs:\n got %s\nwant %s", got, baseJSON)
			}
			want := snaps[mid+1:]
			if len(resnaps) != len(want) {
				t.Fatalf("resume wrote %d snapshots, want %d", len(resnaps), len(want))
			}
			for i := range want {
				if err := snapshot.Diff(want[i], resnaps[i]); err != nil {
					t.Errorf("post-restore snapshot %d diverges: %v", i, err)
				}
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
		cp := &Checkpoint{App: "ds", Net: "both", Every: 2 * sim.Microsecond,
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
			a, okA := sparse[i].Section(name)
			b, okB := dense[i].Section(name)
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
