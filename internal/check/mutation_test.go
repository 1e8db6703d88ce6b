// Mutation validation: the proof that the invariant layer actually catches
// bugs. Each test plants one deliberate, well-understood defect behind a
// Mutation flag, drives the same traffic with and without it, and requires
// that (a) the clean run raises no violations and (b) the mutated run trips
// the specific invariant the defect breaks. A checker that misses a planted
// defect cannot be trusted to catch an accidental one.

package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

// hasInvariant reports whether the result contains a violation of one of
// the named invariants.
func hasInvariant(res *check.Result, names ...string) bool {
	for _, v := range res.Violations {
		for _, n := range names {
			if v.Invariant == n {
				return true
			}
		}
	}
	return false
}

// requireCaught asserts the clean run is silent and the mutated run trips
// one of the expected invariants.
func requireCaught(t *testing.T, clean, mutated *check.Result, invariants ...string) {
	t.Helper()
	if !clean.Ok() {
		t.Fatalf("clean run raised violations (rig is broken):\n%s", clean)
	}
	if mutated.Ok() {
		t.Fatalf("mutation escaped the checker entirely")
	}
	if !hasInvariant(mutated, invariants...) {
		t.Fatalf("mutation caught, but not by %v:\n%s", invariants, mutated)
	}
}

// ---------------------------------------------------------------------------
// Switch-core mutations: a bare core stepped directly, with the checker on
// both the per-cycle sweep and the inject/deliver boundary.

type switchRig struct {
	core   *dvswitch.Core
	chk    *check.Checker
	inject func(dvswitch.Packet)
}

func newSwitchRig(cfg *check.Config, mut dvswitch.Mutation) *switchRig {
	core := dvswitch.NewCore(dvswitch.Params{Heights: 4, Angles: 4})
	core.SetMutation(mut)
	chk := check.New(cfg)
	deliver := chk.WrapDeliver(func(dvswitch.Packet) {})
	core.Deliver = func(pkt dvswitch.Packet, cycle int64) { deliver(pkt) }
	chk.AttachCore(core)
	return &switchRig{core: core, chk: chk, inject: chk.WrapInject(core.Inject)}
}

// drive injects one packet per port per round toward pseudo-random
// destinations (heavy contention).
func (r *switchRig) drive(rounds int) {
	rng := sim.NewRNG(42)
	ports := r.core.Params().Ports()
	for round := 0; round < rounds; round++ {
		for port := 0; port < ports; port++ {
			dst := int(rng.Uint64() % uint64(ports))
			r.inject(dvswitch.Packet{Src: port, Dst: dst,
				Header: uint64(round)<<16 | uint64(port), Payload: rng.Uint64()})
		}
		r.core.Step()
	}
}

// drain steps the fabric until idle (bounded).
func (r *switchRig) drain() {
	for i := 0; r.core.Busy() && i < 20000; i++ {
		r.core.Step()
	}
}

func runSwitchMutation(mut dvswitch.Mutation, prep func(*switchRig)) (clean, mutated *check.Result) {
	for _, m := range []dvswitch.Mutation{0, mut} {
		rig := newSwitchRig(check.All(), m)
		if prep != nil {
			prep(rig)
		}
		rig.drive(200)
		rig.drain()
		res := rig.chk.Finalize()
		if m == 0 {
			clean = res
		} else {
			mutated = res
		}
	}
	return clean, mutated
}

func TestMutationDropDeflectSignal(t *testing.T) {
	clean, mutated := runSwitchMutation(dvswitch.MutDropDeflectSignal, nil)
	requireCaught(t, clean, mutated, "occupancy", "conservation", "lost")
}

func TestMutationBitOffByOne(t *testing.T) {
	clean, mutated := runSwitchMutation(dvswitch.MutBitOffByOne, nil)
	requireCaught(t, clean, mutated, "prefix")
}

func TestMutationSkipDropCount(t *testing.T) {
	// A dead output-ring node makes the fabric drop packets; the clean run
	// counts them (and stays conservation-clean), the mutated run loses them
	// silently.
	prep := func(r *switchRig) {
		L := r.core.Params().Cylinders() - 1
		r.core.SetFaulty(L, 0, 1, true)
	}
	clean, mutated := runSwitchMutation(dvswitch.MutSkipDropCount, prep)
	requireCaught(t, clean, mutated, "conservation")
}

func TestMutationDoubleDeliver(t *testing.T) {
	clean, mutated := runSwitchMutation(dvswitch.MutDoubleDeliver, nil)
	requireCaught(t, clean, mutated, "duplication")
}

func TestMutationStickyOutputRing(t *testing.T) {
	// Packets circle the output ring forever; the age bound derived from
	// the 4×4 geometry (1024 + 64 × 48 switching nodes = 4096 cycles) must
	// flag them as livelocked within the bounded stepping.
	cfg := &check.Config{Switch: true}
	var clean, mutated *check.Result
	for _, m := range []dvswitch.Mutation{0, dvswitch.MutStickyOutputRing} {
		rig := newSwitchRig(cfg, m)
		rig.drive(8)
		if m == 0 {
			// Drain the clean rig so finalize sees an empty fabric.
			rig.drain()
			clean = rig.chk.Finalize()
		} else {
			// The mutated fabric never drains; step past the age bound.
			for i := 0; i < 4096+64; i++ {
				rig.core.Step()
			}
			mutated = rig.chk.Finalize()
		}
	}
	if !clean.Ok() {
		t.Fatalf("clean run raised violations (rig is broken):\n%s", clean)
	}
	if !hasInvariant(mutated, "livelock") {
		t.Fatalf("livelock not flagged:\n%s", mutated)
	}
}

// ---------------------------------------------------------------------------
// VIC mutations: two VICs over an immediate loopback "fabric".

type vicRig struct {
	k    *sim.Kernel
	vics []*vic.VIC
	chk  *check.Checker
}

func newVICRig(n int, mut vic.Mutation) *vicRig {
	k := sim.NewKernel()
	vics := make([]*vic.VIC, n)
	inject := func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) }
	chk := check.New(check.All())
	for i := range vics {
		vics[i] = vic.New(k, i, i, vic.DefaultParams(), inject)
		vics[i].SetMutation(mut)
		chk.AttachVIC(vics[i])
	}
	return &vicRig{k: k, vics: vics, chk: chk}
}

func runVICMutation(t *testing.T, mut vic.Mutation, body func(r *vicRig, p *sim.Proc)) (clean, mutated *check.Result) {
	t.Helper()
	for _, m := range []vic.Mutation{0, mut} {
		rig := newVICRig(2, m)
		rig.k.Spawn("host", func(p *sim.Proc) { body(rig, p) })
		rig.k.Run()
		res := rig.chk.Finalize()
		if m == 0 {
			clean = res
		} else {
			mutated = res
		}
	}
	return clean, mutated
}

func TestMutationGCDoubleDec(t *testing.T) {
	clean, mutated := runVICMutation(t, vic.MutGCDoubleDec, func(r *vicRig, p *sim.Proc) {
		// Arm counter 5 on VIC 1 for exactly one arrival, then decrement it
		// once from VIC 0: clean lands at 0, double-dec lands at -1.
		r.vics[1].LocalSetGC(p, 5, 1)
		r.vics[0].InjectDecGC(p, 1, 5)
	})
	requireCaught(t, clean, mutated, "gc-negative")
}

func TestMutationFIFODrainReorder(t *testing.T) {
	clean, mutated := runVICMutation(t, vic.MutFIFODrainReorder, func(r *vicRig, p *sim.Proc) {
		words := make([]vic.Word, 8)
		for i := range words {
			words[i] = vic.Word{Dst: 1, Op: vic.OpFIFO, GC: vic.NoGC, Val: uint64(100 + i)}
		}
		r.vics[0].HostSend(p, vic.PIO, words)
		for range words {
			if _, ok := r.vics[1].PopSurprise(p, sim.Forever); !ok {
				break
			}
		}
	})
	requireCaught(t, clean, mutated, "fifo-order")
}

func TestMutationUncountedBytes(t *testing.T) {
	clean, mutated := runVICMutation(t, vic.MutUncountedBytes, func(r *vicRig, p *sim.Proc) {
		words := make([]vic.Word, 16)
		for i := range words {
			words[i] = vic.Word{Dst: 1, Op: vic.OpWrite, GC: vic.NoGC,
				Addr: uint32(i), Val: uint64(i) + 1}
		}
		r.vics[0].HostSend(p, vic.DMACached, words)
	})
	requireCaught(t, clean, mutated, "pcie-bytes")
}

// ---------------------------------------------------------------------------
// Reliable-layer mutations: endpoints over a cycle-accurate engine, the
// same rig shape the dv package's own tests use.

type relRig struct {
	k    *sim.Kernel
	eps  []*dv.Endpoint
	vics []*vic.VIC
	chk  *check.Checker
}

func newRelRig(n int, mut dv.Mutation, plan *faultplan.Plan) *relRig {
	k := sim.NewKernel()
	eng := dvswitch.NewEngine(k, dvswitch.ForPorts(n), dvswitch.DefaultCycleTime)
	if plan != nil {
		eng.ApplyPlan(plan)
	}
	// Reliable invariants only: the engine's fault drops are intentional
	// here, so the switch-boundary accounting stays out of the way.
	chk := check.New(&check.Config{Reliable: true})
	rig := &relRig{k: k, chk: chk, eps: make([]*dv.Endpoint, n), vics: make([]*vic.VIC, n)}
	for i := 0; i < n; i++ {
		rig.vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
		rig.vics[i].BarrierInit(n)
		rig.eps[i] = dv.NewEndpoint(rig.vics[i], i, n)
		rig.eps[i].SetMutation(mut)
		chk.AttachVIC(rig.vics[i])
		vics := rig.vics
		chk.BindEndpoint(rig.eps[i], func(dst int) *vic.VIC {
			if dst < 0 || dst >= len(vics) {
				return nil
			}
			return vics[dst]
		})
	}
	eng.OnDeliver(func(pkt dvswitch.Packet) { rig.vics[pkt.Dst].Receive(pkt) })
	return rig
}

func runRelMutation(t *testing.T, mut dv.Mutation, plan *faultplan.Plan, words int) (clean, mutated *check.Result, errs int) {
	t.Helper()
	for _, m := range []dv.Mutation{0, mut} {
		rig := newRelRig(2, m, plan)
		addr := rig.eps[0].Alloc(words)
		rig.eps[1].Alloc(words)
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(i)*2654435761 + 1
		}
		nerr := 0
		for _, e := range rig.eps {
			e := e
			rig.k.Spawn("node", func(p *sim.Proc) {
				e.Bind(p)
				if e.Rank() == 0 {
					if err := e.ReliableWrite(1, addr, vals); err != nil {
						nerr++
					}
				}
			})
		}
		rig.k.Run()
		res := rig.chk.Finalize()
		if m == 0 {
			clean = res
		} else {
			mutated, errs = res, nerr
		}
	}
	return clean, mutated, errs
}

func TestMutationSkipRetransmit(t *testing.T) {
	// A lossy fabric plus a verify pass that always reports success: words
	// the fabric dropped are reported delivered without ever landing.
	plan := &faultplan.Plan{Seed: 3, DropProb: 0.02}
	clean, mutated, errs := runRelMutation(t, dv.MutSkipRetransmit, plan, 2048)
	if errs != 0 {
		t.Fatalf("mutated run reported %d honest errors; the mutation should silence them", errs)
	}
	requireCaught(t, clean, mutated, "exactly-once")
}

func TestMutationSeqSkip(t *testing.T) {
	clean, mutated, _ := runRelMutation(t, dv.MutSeqSkip, nil, 2048)
	requireCaught(t, clean, mutated, "seq-monotone")
}
