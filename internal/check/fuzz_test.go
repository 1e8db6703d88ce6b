// Native fuzz targets for the invariant layer. Two properties are fuzzed:
//
//   - FuzzSwitchInvariants: arbitrary traffic and fault probabilities driven
//     through the sparse bitmap stepper AND the dense full-fabric scan,
//     each under its own checker. Both runs must finish violation-free with
//     bit-identical telemetry — the differential oracle the sparse rewrite
//     is held to.
//   - FuzzReliableDelivery: a reliable write across a lossy cycle-accurate
//     fabric, with the exactly-once and sequence invariants on. Whatever
//     fate the fault RNG deals, the layer either delivers everything (and
//     destination memory proves it) or reports an honest error; the checker
//     must stay silent in both cases.
//
// The committed corpus under testdata/fuzz seeds the interesting regions:
// minimum geometry, saturating drop rates, chunk-boundary write sizes.

package check_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

// checkedCore builds one core (sparse or dense) with a full switch checker
// on the sweep and both boundaries.
type checkedCore struct {
	core   *dvswitch.Core
	chk    *check.Checker
	inject func(dvswitch.Packet)
}

func newCheckedCore(p dvswitch.Params, dense bool, faultSeed uint64, fp dvswitch.FaultProbs) *checkedCore {
	core := dvswitch.NewCore(p)
	core.Dense = dense
	if fp.Drop > 0 || fp.Corrupt > 0 {
		core.SetFaultProbs(fp, sim.NewRNG(faultSeed))
	}
	chk := check.New(&check.Config{Switch: true})
	deliver := chk.WrapDeliver(func(dvswitch.Packet) {})
	core.Deliver = func(pkt dvswitch.Packet, cycle int64) { deliver(pkt) }
	chk.AttachCore(core)
	return &checkedCore{core: core, chk: chk, inject: chk.WrapInject(core.Inject)}
}

func FuzzSwitchInvariants(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(2), float64(0), float64(0))
	f.Add(uint64(7), uint16(500), uint8(1), float64(0.05), float64(0))
	f.Add(uint64(9), uint16(64), uint8(0), float64(0), float64(0.2))
	f.Add(uint64(3), uint16(900), uint8(2), float64(0.3), float64(0.3))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint8, drop, corrupt float64) {
		if !(drop >= 0 && drop <= 1) || !(corrupt >= 0 && corrupt <= 1) {
			t.Skip()
		}
		// Odd angle count guarantees drainage (see FuzzCoreFaultDelivery in
		// dvswitch); heights sweep the minimum through a mid-size fabric.
		p := dvswitch.Params{Heights: 2 << (geom % 3), Angles: 5}
		fp := dvswitch.FaultProbs{Drop: drop, Corrupt: corrupt}
		sparse := newCheckedCore(p, false, seed+1, fp)
		dense := newCheckedCore(p, true, seed+1, fp)

		total := 20 + int(n)%1000
		rng := sim.NewRNG(seed)
		for i := 0; i < total; i++ {
			pkt := dvswitch.Packet{
				Src:     rng.Intn(p.Ports()),
				Dst:     rng.Intn(p.Ports()),
				Header:  uint64(i) + 1,
				Payload: rng.Uint64(),
			}
			sparse.inject(pkt)
			dense.inject(pkt)
			if i%2 == 0 {
				sparse.core.Step()
				dense.core.Step()
			}
		}
		sparse.core.RunUntilIdle(1 << 22)
		dense.core.RunUntilIdle(1 << 22)
		if sparse.core.Busy() || dense.core.Busy() {
			t.Fatal("fabric did not drain")
		}
		sres, dres := sparse.chk.Finalize(), dense.chk.Finalize()
		if err := sres.Err(); err != nil {
			t.Fatalf("sparse core violated invariants: %v", err)
		}
		if err := dres.Err(); err != nil {
			t.Fatalf("dense core violated invariants: %v", err)
		}
		if sst, dst := sparse.core.Stats(), dense.core.Stats(); !reflect.DeepEqual(sst, dst) {
			t.Fatalf("sparse/dense telemetry diverged:\nsparse: %+v\ndense:  %+v", sst, dst)
		}
		if sres.PacketsTracked != int64(total) {
			t.Fatalf("tracked %d packets, injected %d", sres.PacketsTracked, total)
		}
	})
}

func FuzzReliableDelivery(f *testing.F) {
	f.Add(uint64(1), uint16(256), float64(0.01), float64(0), uint8(0))
	f.Add(uint64(3), uint16(1024), float64(0.05), float64(0.02), uint8(3))
	f.Add(uint64(7), uint16(511), float64(0), float64(0.1), uint8(1))
	f.Add(uint64(9), uint16(513), float64(0.1), float64(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nw uint16, drop, corrupt float64, chunkSel uint8) {
		if !(drop >= 0 && drop <= 0.3) || !(corrupt >= 0 && corrupt <= 0.3) {
			t.Skip() // beyond ~30% loss the retry budget honestly gives up
		}
		// 1..17 chunks of the layer's 512 words; chunkSel spreads the payload
		// the way the old selectable chunk size (64..512) did, so the named
		// corpus entries keep their chunk counts and boundary alignment.
		words := (16 + int(nw)%1024) << (3 - chunkSel%4)
		plan := &faultplan.Plan{Seed: seed + 1, DropProb: drop, CorruptProb: corrupt}
		if !plan.Active() {
			plan = nil
		}

		k := sim.NewKernel()
		eng := dvswitch.NewEngine(k, dvswitch.ForPorts(2), dvswitch.DefaultCycleTime)
		if plan != nil {
			eng.ApplyPlan(plan)
		}
		chk := check.New(&check.Config{Reliable: true})
		vics := make([]*vic.VIC, 2)
		eps := make([]*dv.Endpoint, 2)
		for i := range vics {
			vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
			vics[i].BarrierInit(2)
			eps[i] = dv.NewEndpoint(vics[i], i, 2)
			chk.AttachVIC(vics[i])
			chk.BindEndpoint(eps[i], func(dst int) *vic.VIC {
				if dst < 0 || dst >= len(vics) {
					return nil
				}
				return vics[dst]
			})
		}
		eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })

		addr := eps[0].Alloc(words)
		eps[1].Alloc(words)
		vals := make([]uint64, words)
		rng := sim.NewRNG(seed)
		for i := range vals {
			vals[i] = rng.Uint64() | 1
		}
		var werr error
		k.Spawn("sender", func(p *sim.Proc) {
			eps[0].Bind(p)
			werr = eps[0].ReliableWrite(1, addr, vals)
		})
		k.Run()
		if res := chk.Finalize(); !res.Ok() {
			t.Fatalf("invariant violations (write err=%v):\n%s", werr, res)
		}
		if werr == nil {
			// Success report: destination memory must hold every word.
			for i, want := range vals {
				if got := vics[1].Peek(addr + uint32(i)); got != want {
					t.Fatalf("word %d: destination holds %#x, want %#x (reported success)", i, got, want)
				}
			}
		}
	})
}
