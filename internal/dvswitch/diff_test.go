package dvswitch

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The golden differential tests: the sparse Step must be bit-identical to
// the dense full-fabric scan (denseStep, which moves every packet through
// moveCell, the routing specification) — same Stats, same delivery sequence,
// same drop sequence, same fault-RNG consumption — over uniform, hotspot, and
// faulty traffic. On the clean scenarios the sparse side runs the
// hand-inlined sparseMovesClean, so they hold it to moveCell. CI runs these
// under -race as well.

// diffEvent is one observable core event (delivery or drop) in order.
type diffEvent struct {
	pkt   Packet
	cycle int64
	drop  bool
}

// driveDiffTraffic runs one synthetic scenario on c and returns the ordered
// event sequence. Injection decisions depend only on the scenario's RNG and
// the core's queue depths, so two bit-identical cores see identical input.
func driveDiffTraffic(c *Core, scenario string, cycles int, seed uint64) []diffEvent {
	var events []diffEvent
	c.Deliver = func(pkt Packet, cycle int64) {
		events = append(events, diffEvent{pkt: pkt, cycle: cycle})
	}
	c.DropHook = func(pkt Packet) {
		events = append(events, diffEvent{pkt: pkt, drop: true, cycle: c.Cycle()})
	}
	p := c.Params()
	ports := p.Ports()
	switch scenario {
	case "faulty":
		// Dead mid-fabric nodes plus probabilistic link faults: exercises
		// drop paths, corruption draws, and the fault-RNG stream order.
		frng := sim.NewRNG(seed * 77)
		for k := 0; k < 3 && p.Cylinders() > 1; k++ {
			cl := 1 + frng.Intn(p.Cylinders()-1)
			c.SetFaulty(cl, frng.Intn(p.Heights), frng.Intn(p.Angles), true)
		}
		c.SetFaultProbs(FaultProbs{Drop: 2e-3, Corrupt: 1e-3, StartCycle: 10},
			sim.NewRNG(seed*13))
	}
	rng := sim.NewRNG(seed)
	id := uint64(0)
	for cy := 0; cy < cycles; cy++ {
		for src := 0; src < ports; src++ {
			if rng.Float64() >= 0.4 || c.QueueLen(src) > 6 {
				continue
			}
			dst := rng.Intn(ports)
			if scenario == "hotspot" && rng.Float64() < 0.3 {
				dst = ports / 3
			}
			id++
			c.Inject(Packet{Src: src, Dst: dst, Header: id, Payload: id * 3})
		}
		c.Step()
	}
	c.RunUntilIdle(1 << 22)
	return events
}

// TestDifferentialDenseVsSparse is the golden test: for every scenario and a
// couple of geometries, the dense and sparse cores must produce identical
// Stats structs and identical event sequences. uniform and hotspot compare
// sparseMovesClean against moveCell; faulty compares two moveCell walks.
func TestDifferentialDenseVsSparse(t *testing.T) {
	geoms := []Params{{Heights: 8, Angles: 4}, {Heights: 4, Angles: 3}, {Heights: 1, Angles: 5}}
	cycles := 3000
	if testing.Short() {
		cycles = 800
	}
	for _, geom := range geoms {
		for _, scenario := range []string{"uniform", "hotspot", "faulty"} {
			t.Run(fmt.Sprintf("%s/H%dA%d", scenario, geom.Heights, geom.Angles), func(t *testing.T) {
				dense := NewCore(geom)
				dense.Dense = true
				sparse := NewCore(geom)
				sparse.Dense = false
				de := driveDiffTraffic(dense, scenario, cycles, 42)
				se := driveDiffTraffic(sparse, scenario, cycles, 42)
				if dense.Stats() != sparse.Stats() {
					t.Errorf("stats diverge:\ndense:  %+v\nsparse: %+v", dense.Stats(), sparse.Stats())
				}
				if len(de) != len(se) {
					t.Fatalf("event counts diverge: dense %d, sparse %d", len(de), len(se))
				}
				for i := range de {
					if de[i] != se[i] {
						t.Fatalf("event %d diverges:\ndense:  %+v\nsparse: %+v", i, de[i], se[i])
					}
				}
				if dense.Cycle() != sparse.Cycle() {
					t.Errorf("cycle counts diverge: dense %d, sparse %d", dense.Cycle(), sparse.Cycle())
				}
				if dense.Stats().Delivered == 0 {
					t.Error("scenario delivered nothing; differential vacuous")
				}
				if scenario == "faulty" && dense.Stats().Dropped == 0 {
					t.Error("faulty scenario dropped nothing; differential vacuous")
				}
			})
		}
	}
}

// TestReentrantInjectDuringDeliver pins the pool-safety contract: a Deliver
// callback may Inject immediately (as the kernel-coupled engine's VICs do),
// reusing the just-freed slot, on both step implementations identically.
func TestReentrantInjectDuringDeliver(t *testing.T) {
	for _, dense := range []bool{true, false} {
		geom := Params{Heights: 8, Angles: 4}
		c := NewCore(geom)
		c.Dense = dense
		rng := sim.NewRNG(5)
		bounces := 0
		c.Deliver = func(pkt Packet, _ int64) {
			if bounces < 5000 {
				bounces++
				c.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(geom.Ports()), Payload: pkt.Payload})
			}
		}
		for i := 0; i < 8; i++ {
			c.Inject(Packet{Src: i, Dst: rng.Intn(geom.Ports()), Payload: uint64(i)})
		}
		c.RunUntilIdle(1 << 22)
		if c.Busy() {
			t.Fatalf("dense=%v: failed to drain", dense)
		}
		if got := c.Stats().Delivered; got != int64(bounces)+8 {
			t.Fatalf("dense=%v: delivered %d, want %d", dense, got, bounces+8)
		}
	}
}

// TestPoolReuseBounded checks the pool stops growing once traffic reaches
// steady state: the allocation-free property the sparse core is built for.
func TestPoolReuseBounded(t *testing.T) {
	geom := Params{Heights: 8, Angles: 4}
	c := NewCore(geom)
	c.Deliver = func(Packet, int64) {}
	rng := sim.NewRNG(3)
	inject := func(cycles int) {
		for cy := 0; cy < cycles; cy++ {
			for src := 0; src < geom.Ports(); src++ {
				if rng.Float64() < 0.3 && c.QueueLen(src) < 4 {
					c.Inject(Packet{Src: src, Dst: rng.Intn(geom.Ports())})
				}
			}
			c.Step()
		}
	}
	inject(2000)
	grown := len(c.pool)
	inject(8000)
	if len(c.pool) > grown*2 {
		t.Fatalf("pool kept growing in steady state: %d -> %d", grown, len(c.pool))
	}
	c.RunUntilIdle(1 << 22)
	if len(c.free) != len(c.pool) {
		t.Fatalf("idle core leaks pool slots: %d free of %d", len(c.free), len(c.pool))
	}
}
