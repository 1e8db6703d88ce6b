package dvswitch

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// signalOracle steps a core by the rule the paper states and the core once
// stored: a same-cylinder move (a deflection, or circling on the output
// ring) asserts a deflection signal on the cell it enters, and a descend
// reads its target's signal first. The signal set is its own state, cleared
// every step, and the inject phase visits every waiting port and tests its
// entry cell, idx(0, PortCoord(p)), one at a time. Core replaces both with
// reads of its next-occupancy bitmap (see moveCell and injectPhase);
// TestSignalOracleLockstep holds the two to the same cycles.
type signalOracle struct {
	c       *Core
	sig     []bool // this step's same-cylinder placements
	blocked int    // descends with a matching bit that a signal deflected
}

func newSignalOracle(p Params) *signalOracle {
	c := NewCore(p)
	return &signalOracle{c: c, sig: make([]bool, len(c.grid))}
}

// step is one cycle: every occupied node, inner cylinders first and in
// dense-scan order within a cylinder, then the inject phase.
func (o *signalOracle) step() {
	c := o.c
	for cl := c.levels; cl >= 0; cl-- {
		base := cl * c.cylN
		for j, ref := range c.grid[base : base+c.cylN] {
			if ref != 0 {
				o.move(base+j, ref)
			}
		}
	}
	o.inject()
	clear(o.sig)
	c.finishStep()
}

// signal asserts the deflection signal on cell idx.
func (o *signalOracle) signal(idx int) {
	if o.c.mut&MutDropDeflectSignal == 0 {
		o.sig[idx] = true
	}
}

// move is moveCell with the deflection signal read from o.sig.
func (o *signalOracle) move(idx int, ref int32) {
	c := o.c
	t := &c.tab[idx]
	f := &c.pstate[ref-1]
	if t.desc < 0 {
		if f.da == t.da {
			c.eject(ref)
			return
		}
		ni := int(t.next)
		if c.faulty != nil && c.faulty[ni] {
			c.drop(ref)
			return
		}
		if c.frng != nil && c.linkFault(ref) {
			return
		}
		c.place(ni, ref)
		o.signal(ni)
		return
	}
	if c.frng != nil && c.linkFault(ref) {
		return
	}
	if (f.dh>>t.bit)&1 == t.hbit {
		d := int(t.desc)
		if !o.sig[d] && (c.faulty == nil || !c.faulty[d]) {
			c.place(d, ref)
			return
		}
		if o.sig[d] {
			o.blocked++
		}
	}
	ni := int(t.defl)
	if c.faulty != nil && c.faulty[ni] {
		c.drop(ref)
		return
	}
	f.defl++
	c.place(ni, ref)
	o.signal(ni)
}

// inject visits every waiting port in ascending order and fills its entry
// cell when that cell is free and alive.
func (o *signalOracle) inject() {
	c := o.c
	if c.queued == 0 {
		return
	}
	for w, mask := range c.qmask {
		for m := mask; m != 0; m &= m - 1 {
			port := w<<6 + bits.TrailingZeros64(m)
			h, a := c.p.PortCoord(port)
			at := c.idx(0, h, a)
			q := &c.inq[port]
			if c.next[at] == 0 && (c.faulty == nil || !c.faulty[at]) {
				c.stats.QueuedCycles += int64(uint32(c.cycle) - q.head.rec[q.hi].cycle)
				c.place(at, c.alloc(port, q.head, q.hi))
				c.pop(q)
				c.queued--
				c.flying++
			}
			if q.n == 0 {
				c.qmask[w] &^= 1 << uint(port&63)
			}
		}
	}
}

// inFlightCell is one occupied node as ForEachInFlight reports it.
type inFlightCell struct {
	id        int32
	cyl, h, a int
	pkt       Packet
}

func occupancy(c *Core, buf []inFlightCell) []inFlightCell {
	buf = buf[:0]
	c.ForEachInFlight(func(id int32, cyl, h, a int, pkt Packet) {
		buf = append(buf, inFlightCell{id, cyl, h, a, pkt})
	})
	return buf
}

// TestSignalOracleLockstep steps the signal oracle, a dense core and a
// sparse core in lockstep on the same offered packets, clean, under dead
// nodes (one of them an entry node), under link drop and corrupt faults, and
// under each routing mutation, and requires the same occupancy, pool
// references and deliveries after every cycle and the same Stats at the end.
// No non-test code keeps an explicit signal set, so this is the test that
// holds the argument that a descend target's next-occupancy bit is its
// deflection signal; its clean cases also hold the word-wide inject phase
// to the port-by-port one.
func TestSignalOracleLockstep(t *testing.T) {
	cycles := 600
	if testing.Short() {
		cycles = 250
	}
	type setup struct {
		name string
		mut  Mutation
		dead bool
		link bool
	}
	setups := []setup{
		{name: "clean"},
		{name: "dead", dead: true},
		{name: "link", link: true},
		{name: "BitOffByOne", mut: MutBitOffByOne},
		{name: "StickyOutputRing", mut: MutStickyOutputRing},
		{name: "DropDeflectSignal", mut: MutDropDeflectSignal},
	}
	for _, geom := range []Params{{Heights: 8, Angles: 4}, {Heights: 16, Angles: 5}} {
		for _, s := range setups {
			t.Run(fmt.Sprintf("%s/H%dA%d", s.name, geom.Heights, geom.Angles), func(t *testing.T) {
				o := newSignalOracle(geom)
				dense, sparse := NewCore(geom), NewCore(geom)
				dense.Dense = true
				cores := []*Core{o.c, dense, sparse}
				names := []string{"oracle", "dense", "sparse"}
				dels := make([][]diffEvent, len(cores))
				for i, c := range cores {
					c.Deliver = func(pkt Packet, cycle int64) {
						dels[i] = append(dels[i], diffEvent{pkt: pkt, cycle: cycle})
					}
					c.DropHook = func(pkt Packet) {
						dels[i] = append(dels[i], diffEvent{pkt: pkt, cycle: c.Cycle(), drop: true})
					}
					if s.mut != 0 {
						c.SetMutation(s.mut)
					}
					if s.dead {
						c.SetFaulty(0, 1, 2, true)
						c.SetFaulty(1, 3, 1, true)
						c.SetFaulty(c.levels, 5, 0, true)
					}
					if s.link {
						c.SetFaultProbs(FaultProbs{Drop: 3e-3, Corrupt: 2e-3}, sim.NewRNG(19))
					}
				}
				rng := sim.NewRNG(23)
				occ := make([][]inFlightCell, len(cores))
				for cy := 0; cy < cycles; cy++ {
					for src := 0; src < geom.Ports(); src++ {
						if rng.Float64() < 0.45 && o.c.QueueLen(src) < 4 {
							pkt := Packet{Src: src, Dst: rng.Intn(geom.Ports()), Payload: uint64(cy)<<16 | uint64(src)}
							for _, c := range cores {
								c.Inject(pkt)
							}
						}
					}
					o.step()
					dense.Step()
					sparse.Step()
					for i := range cores {
						occ[i] = occupancy(cores[i], occ[i])
					}
					for i := 1; i < len(cores); i++ {
						if len(occ[i]) != len(occ[0]) || len(dels[i]) != len(dels[0]) {
							t.Fatalf("cycle %d: %s holds %d packets and emitted %d events, oracle %d and %d",
								cy, names[i], len(occ[i]), len(dels[i]), len(occ[0]), len(dels[0]))
						}
						for j := range occ[0] {
							if occ[i][j] != occ[0][j] {
								t.Fatalf("cycle %d: occupancy diverges:\noracle: %+v\n%s: %+v", cy, occ[0][j], names[i], occ[i][j])
							}
						}
						for j := range dels[0] {
							if dels[i][j] != dels[0][j] {
								t.Fatalf("cycle %d: event %d diverges:\noracle: %+v\n%s: %+v", cy, j, dels[0][j], names[i], dels[i][j])
							}
						}
					}
				}
				for i := 1; i < len(cores); i++ {
					if cores[i].Stats() != o.c.Stats() {
						t.Errorf("stats diverge:\noracle: %+v\n%s: %+v", o.c.Stats(), names[i], cores[i].Stats())
					}
				}
				st := o.c.Stats()
				switch {
				case s.mut != MutStickyOutputRing && st.Delivered == 0:
					t.Error("nothing delivered; the comparison is vacuous")
				case s.mut != MutDropDeflectSignal && o.blocked == 0:
					t.Error("no signal ever deflected a descend; the comparison is vacuous")
				case (s.dead || s.link) && st.Dropped == 0:
					t.Error("the faults dropped nothing; the comparison is vacuous")
				case s.link && st.Corrupted == 0:
					t.Error("the link faults corrupted nothing; the comparison is vacuous")
				}
			})
		}
	}
}
