package dvswitch

import (
	"repro/internal/sim"
)

// Ledger-only: no product run attaches a FanPool, so parStep never runs
// outside tests and the benchmark. This file stays because benchmark/fan.go
// measures the ledger key dvswitch.fan2_speedup through SetFanPool (0.28–0.33
// on two real cores: the fan is 3–7× slower than the serial step), and nothing
// under benchmark/ may change outside a benchmark-archetype PR. The PR that
// retires that key (ROADMAP open item 6) deletes this file with
// internal/sim/pool.go; TestFanIsLedgerOnly at the repo root keeps new callers
// out until then.
//
// Parallel stepping. parStep fans the clean-path move phase across a
// sim.FanPool, one cylinder pass at a time, and is bit-identical to the
// serial Step at any worker count:
//
//   - Within one cylinder pass, move targets are pairwise distinct (circling
//     and deflection are injective on (height, angle); descend targets land
//     in the next cylinder, also injectively), so workers write next[] and
//     per-packet flight state with no two writers on one element.
//   - Cross-pass collisions are excluded by the deflection signal itself —
//     a descend is blocked when its target cell's next-occupancy bit was set
//     in the previous pass (see moveCell) — provided each pass observes the
//     previous pass's merged bits. Workers therefore accumulate occupancy
//     bits in per-worker local bitmaps, OR-merged into nxtMask between
//     barriers (each worker merges a disjoint word range, so the merge is
//     parallel too and the OR order is irrelevant).
//   - Ejects are order-sensitive (stats, Deliver callbacks, packet-pool
//     reuse, re-injection), so workers only collect candidate refs in chunk
//     order; participant 0 applies them serially in ascending-cell order —
//     exactly the dense-scan order the serial path produces — while the
//     other participants merge the output ring's occupancy words.
//
// The result: same next occupancy, same eject/Deliver
// sequence, same stats, same pool-reference reuse as the serial clean path,
// for any pool width. The lockstep differential tests and the sparse/dense
// goldens enforce this.

// DefaultParMinFlying is the occupancy below which parStep is not worth its
// barriers: a fan costs a few microseconds of handoff and spin per cycle,
// which only amortizes once the per-cycle move work is comparable. Runs on
// reference-size fabrics rarely cross it; 256-port-and-up saturated fabrics
// do.
const DefaultParMinFlying = 2048

// parState is the per-core scratch for parallel stepping.
type parState struct {
	pool      *sim.FanPool
	minFlying int
	nxt       [][]uint64 // per-worker local nxtMask accumulators
	ej        [][]int32  // per-worker eject candidates, chunk order
}

// SetFanPool attaches (or, with nil, detaches) a worker pool for parallel
// stepping. minFlying is the occupancy gate: cycles with fewer in-flight
// packets run the serial path (0 selects DefaultParMinFlying; negative
// forces every cycle parallel, which the differential tests use). The
// parallel path engages only on clean-path cycles (no faults, mutations, or
// per-event instruments) of the sparse stepper; everything else — and any
// run with a width-1 pool — is the unchanged serial code.
func (c *Core) SetFanPool(p *sim.FanPool, minFlying int) {
	if p == nil || p.Workers() <= 1 {
		c.par = nil
		return
	}
	if minFlying == 0 {
		minFlying = DefaultParMinFlying
	}
	w := p.Workers()
	ps := &parState{pool: p, minFlying: minFlying}
	ps.nxt = make([][]uint64, w)
	ps.ej = make([][]int32, w)
	for i := 0; i < w; i++ {
		ps.nxt[i] = make([]uint64, len(c.nxtMask))
	}
	c.par = ps
}

// parEligible reports whether this cycle takes the parallel path.
func (c *Core) parEligible() bool {
	return c.par != nil && !c.Dense &&
		(c.flying >= c.par.minFlying || c.par.minFlying < 0) &&
		c.cleanPath()
}

// mergeClear ORs the words holding cells [lo, hi) of every local bitmap into
// dst, split W ways by participant id so merge work is parallel, and clears
// the merged local words.
func mergeClear(dst []uint64, locals [][]uint64, lo, hi, id, parts int) {
	lo, hi = lo>>6, (hi+63)>>6
	span := hi - lo
	mlo := lo + span*id/parts
	mhi := lo + span*(id+1)/parts
	for w := mlo; w < mhi; w++ {
		v := uint64(0)
		for p := range locals {
			if x := locals[p][w]; x != 0 {
				v |= x
				locals[p][w] = 0
			}
		}
		if v != 0 {
			dst[w] |= v
		}
	}
}

// parStep is Step's clean-path move phase fanned across the pool, followed
// by the usual serial inject phase and step finish.
func (c *Core) parStep() {
	ps := c.par
	L := c.levels
	cylN := c.cylN
	ps.pool.Run(func(fc *sim.FanCtx) {
		id, W := fc.ID(), fc.Parts()
		lo := cylN * id / W
		hi := cylN * (id + 1) / W
		grid := c.grid
		next := c.next
		tab := c.tab
		pstate := c.pstate
		lnxt := ps.nxt[id]
		ej := ps.ej[id][:0]
		// Output ring (cylinder L): eject at the destination angle (deferred
		// to the serial section below), else circle.
		base := L * cylN
		for j := lo; j < hi; j++ {
			ref := grid[base+j]
			if ref == 0 {
				continue
			}
			t := &tab[base+j]
			if pstate[ref-1].da == t.da {
				ej = append(ej, ref)
				continue
			}
			ni := t.next
			next[ni] = ref
			lnxt[ni>>6] |= 1 << (uint32(ni) & 63)
		}
		ps.ej[id] = ej
		fc.Barrier()
		// Participant 0 applies ejects in ascending-cell order; the rest merge
		// cylinder L's occupancy words, which ejecting never touches.
		if id == 0 {
			for w := 0; w < W; w++ {
				for _, ref := range ps.ej[w] {
					c.eject(ref)
				}
				ps.ej[w] = ps.ej[w][:0]
			}
		} else {
			mergeClear(c.nxtMask, ps.nxt, L*cylN, (L+1)*cylN, id-1, W-1)
		}
		fc.Barrier()
		// Inner cylinders: descend or deflect, by mask select, reading the
		// previous pass's merged occupancy.
		for cl := L - 1; cl >= 0; cl-- {
			base := cl * cylN
			for j := lo; j < hi; j++ {
				ref := grid[base+j]
				if ref == 0 {
					continue
				}
				t := &tab[base+j]
				f := &pstate[ref-1]
				d := t.desc
				blocked := uint32((f.dh>>t.bit)&1^t.hbit) | uint32(c.nxtMask[d>>6]>>(uint32(d)&63))&1
				ni := d ^ (d^t.defl)&-int32(blocked)
				f.defl += blocked
				next[ni] = ref
				lnxt[ni>>6] |= 1 << (uint32(ni) & 63)
			}
			fc.Barrier()
			mergeClear(c.nxtMask, ps.nxt, cl*cylN, (cl+1)*cylN, id, W)
			fc.Barrier()
		}
		// Publish the next-occupancy bitmap; Run's join orders this before
		// the serial inject phase.
		mergeClear(c.nxtMask, ps.nxt, 0, len(c.grid), id, W)
	})
	c.injectPhase()
	c.finishStep()
}
