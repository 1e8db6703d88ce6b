package dvswitch_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// The tests that step a core under the per-cycle invariant sweep. The sweep
// is internal/check's (AttachCore): it checks packet conservation,
// occupancy, duplication, the resolved-prefix property — a packet in
// cylinder c sits at a height whose top c bits already match its
// destination's — and the deflection and livelock bounds after every Step.

// sweep attaches a switch-only checker to c.
func sweep(c *dvswitch.Core) *check.Checker {
	chk := check.New(&check.Config{Switch: true})
	chk.AttachCore(c)
	return chk
}

// requireClean fails t unless the checker swept every cycle c stepped and
// found no violation.
func requireClean(t *testing.T, name string, c *dvswitch.Core, chk *check.Checker) {
	t.Helper()
	res := chk.Finalize()
	if err := res.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.CyclesChecked != c.Cycle() || c.Cycle() == 0 {
		t.Fatalf("%s: swept %d cycles of %d", name, res.CyclesChecked, c.Cycle())
	}
}

// TestPrefixInvariantPerCycle runs the per-cycle sweep under heavy random
// traffic: any deflection that un-resolved an already-routed height prefix
// is a "prefix" violation.
func TestPrefixInvariantPerCycle(t *testing.T) {
	p := dvswitch.Params{Heights: 8, Angles: 4}
	c := dvswitch.NewCore(p)
	chk := sweep(c)
	c.Deliver = func(dvswitch.Packet, int64) {}
	rng := sim.NewRNG(11)
	for i := 0; i < 3000; i++ {
		c.Inject(dvswitch.Packet{Src: rng.Intn(p.Ports()), Dst: rng.Intn(p.Ports())})
	}
	c.RunUntilIdle(1 << 20)
	if c.Busy() {
		t.Fatal("failed to drain")
	}
	requireClean(t, "sparse", c, chk)
}

// flightCell is one occupied switching node as ForEachInFlight reports it.
type flightCell struct {
	cyl, h, a int
	pkt       dvswitch.Packet
}

// inFlight lists c's occupied nodes in dense-scan order.
func inFlight(c *dvswitch.Core, buf []flightCell) []flightCell {
	buf = buf[:0]
	c.ForEachInFlight(func(_ int32, cyl, h, a int, pkt dvswitch.Packet) {
		buf = append(buf, flightCell{cyl, h, a, pkt})
	})
	return buf
}

// TestDifferentialLockstep steps a dense and a sparse core strictly in
// lockstep under the invariant sweep, comparing per-cycle occupancy — a
// sharper probe than end-of-run stats, catching any single-cycle divergence
// in deflection signalling or injection order.
func TestDifferentialLockstep(t *testing.T) {
	geom := dvswitch.Params{Heights: 8, Angles: 4}
	dense, sparse := dvswitch.NewCore(geom), dvswitch.NewCore(geom)
	dense.Dense = true
	dChk, sChk := sweep(dense), sweep(sparse)
	var dDel, sDel []dvswitch.Packet
	dense.Deliver = func(pkt dvswitch.Packet, _ int64) { dDel = append(dDel, pkt) }
	sparse.Deliver = func(pkt dvswitch.Packet, _ int64) { sDel = append(sDel, pkt) }
	rng := sim.NewRNG(7)
	cycles := 1500
	if testing.Short() {
		cycles = 400
	}
	var dFly, sFly []flightCell
	for cy := 0; cy < cycles; cy++ {
		for src := 0; src < geom.Ports(); src++ {
			if rng.Float64() < 0.5 && dense.QueueLen(src) < 4 {
				dst := rng.Intn(geom.Ports())
				pkt := dvswitch.Packet{Src: src, Dst: dst, Payload: uint64(cy)<<16 | uint64(src)}
				dense.Inject(pkt)
				sparse.Inject(pkt)
			}
		}
		dense.Step()
		sparse.Step()
		if len(dDel) != len(sDel) {
			t.Fatalf("cycle %d: delivery counts diverge (%d vs %d)", cy, len(dDel), len(sDel))
		}
		dFly, sFly = inFlight(dense, dFly), inFlight(sparse, sFly)
		if len(dFly) != len(sFly) {
			t.Fatalf("cycle %d: occupancy diverges (%d vs %d packets)", cy, len(dFly), len(sFly))
		}
		for i := range dFly {
			if dFly[i] != sFly[i] {
				t.Fatalf("cycle %d: occupancy diverges:\ndense:  %+v\nsparse: %+v", cy, dFly[i], sFly[i])
			}
		}
	}
	dense.RunUntilIdle(1 << 20)
	sparse.RunUntilIdle(1 << 20)
	if dense.Stats() != sparse.Stats() {
		t.Errorf("final stats diverge:\ndense:  %+v\nsparse: %+v", dense.Stats(), sparse.Stats())
	}
	for i := range dDel {
		if dDel[i] != sDel[i] {
			t.Fatalf("delivery %d diverges", i)
		}
	}
	requireClean(t, "dense", dense, dChk)
	requireClean(t, "sparse", sparse, sChk)
}

// TestLargeGeometryDifferential routes traffic through the corrected 256-
// and 1024-port geometries on all three steppers — the sparse bitmap walk,
// the dense reference scan, and the fanned parStep — each under the
// per-cycle invariant sweep. Stats, event sequences, and cycle counts must
// agree exactly, proving the encodings and the fan scale to the larger grids.
func TestLargeGeometryDifferential(t *testing.T) {
	cycles := 120
	if testing.Short() {
		cycles = 40
	}
	for _, n := range []int{256, 1024} {
		p := dvswitch.ForPorts(n)
		t.Run(fmt.Sprintf("H%dA%d", p.Heights, p.Angles), func(t *testing.T) {
			run := func(mode string) (dvswitch.Stats, []dvswitch.DiffEvent, int64) {
				c := dvswitch.NewCore(p)
				chk := sweep(c)
				switch mode {
				case "dense":
					c.Dense = true
				case "fan":
					pool := sim.NewFanPool(4)
					defer pool.Stop()
					c.SetFanPool(pool, -1) // fan every cycle regardless of occupancy
				}
				ev := dvswitch.DriveDiffTraffic(c, "uniform", cycles, 42)
				requireClean(t, mode, c, chk)
				return c.Stats(), ev, c.Cycle()
			}
			sSt, sEv, sCy := run("sparse")
			dSt, dEv, dCy := run("dense")
			fSt, fEv, fCy := run("fan")
			if sSt != dSt || sSt != fSt {
				t.Errorf("stats diverge:\nsparse: %+v\ndense:  %+v\nfan:    %+v", sSt, dSt, fSt)
			}
			if len(sEv) != len(dEv) || len(sEv) != len(fEv) {
				t.Fatalf("event counts diverge: sparse %d, dense %d, fan %d", len(sEv), len(dEv), len(fEv))
			}
			for i := range sEv {
				if sEv[i] != dEv[i] || sEv[i] != fEv[i] {
					t.Fatalf("event %d diverges:\nsparse: %+v\ndense:  %+v\nfan:    %+v",
						i, sEv[i], dEv[i], fEv[i])
				}
			}
			if sCy != dCy || sCy != fCy {
				t.Errorf("cycle counts diverge: sparse %d, dense %d, fan %d", sCy, dCy, fCy)
			}
			if sSt.Delivered == 0 {
				t.Error("large geometry delivered nothing; differential vacuous")
			}
		})
	}
}
