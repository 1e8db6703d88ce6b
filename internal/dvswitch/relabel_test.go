package dvswitch

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/sim"
)

// Port-relabel symmetry. Every move of the fabric commutes with the map
// (h, a) → (h^m, (a+k) mod Angles): a descend keeps the height, a
// deflection XORs it with the resolved bit, the descend test compares one
// bit of the height with the same bit of the destination's, and every move
// advances the angle by one. Within a cylinder pass move targets are
// distinct and the deflection signals read come from the previous pass, so
// the order Step visits cells in does not decide any move. Open-loop
// traffic with every source and destination relabelled must therefore
// deliver the relabelled packets with the same latency, hops and
// deflections.

// relabel maps a port's (height, angle) to another port's.
type relabel func(p Params, h, a int) (int, int)

// xorShift is the automorphism h → h^m, a → (a+k) mod Angles.
func xorShift(m, k int) relabel {
	return func(p Params, h, a int) (int, int) { return h ^ m, (a + k) % p.Angles }
}

// port applies r to a port index.
func (r relabel) port(p Params, port int) int {
	h, a := p.PortCoord(port)
	h, a = r(p, h, a)
	return h*p.Angles + a
}

// arrival is what a delivery shows, with the ports named by the run that
// the comparison is made in.
type arrival struct{ src, dst, lat, hops, defl int }

// relabelArrivals offers the same open-loop schedule twice, once as drawn
// and once through r, and returns both runs' deliveries with the first
// run's ports mapped through r, each sorted.
func relabelArrivals(t *testing.T, p Params, dense bool, r relabel) (want, got []arrival) {
	t.Helper()
	seen := make([]bool, p.Ports())
	for port := range seen {
		q := r.port(p, port)
		if q < 0 || q >= p.Ports() || seen[q] {
			t.Fatalf("relabel is not a permutation of %d ports (port %d → %d)", p.Ports(), port, q)
		}
		seen[q] = true
	}
	type send struct{ cycle, src, dst int }
	var sched []send
	rng := sim.NewRNG(31)
	cycles := 24000 / p.Ports() // about 7,200 packets at any size
	for cy := 0; cy < cycles; cy++ {
		for src := 0; src < p.Ports(); src++ {
			if rng.Float64() < 0.3 {
				sched = append(sched, send{cy, src, rng.Intn(p.Ports())})
			}
		}
	}
	run := func(mapPort func(int) int) []arrival {
		c := NewCore(p)
		c.Dense = dense
		var out []arrival
		c.Deliver = func(pkt Packet, cycle int64) {
			out = append(out, arrival{pkt.Src, pkt.Dst, int(cycle - pkt.InjectCycle), pkt.Hops, pkt.Deflections})
		}
		i := 0
		for cy := 0; cy < cycles; cy++ {
			for ; i < len(sched) && sched[i].cycle == cy; i++ {
				c.Inject(Packet{Src: mapPort(sched[i].src), Dst: mapPort(sched[i].dst)})
			}
			c.Step()
		}
		c.RunUntilIdle(1 << 22)
		if c.Busy() || len(out) != len(sched) {
			t.Fatalf("delivered %d of %d packets", len(out), len(sched))
		}
		if st := c.Stats(); st.QueuedCycles == 0 || st.TotalDeflected == 0 {
			t.Fatalf("%d queued cycles, %d deflections: the load tests no contention", st.QueuedCycles, st.TotalDeflected)
		}
		return out
	}
	byFields := func(x, y arrival) int {
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst), cmp.Compare(x.lat, y.lat),
			cmp.Compare(x.hops, y.hops), cmp.Compare(x.defl, y.defl))
	}
	want = run(func(port int) int { return port })
	for i := range want {
		want[i].src, want[i].dst = r.port(p, want[i].src), r.port(p, want[i].dst)
	}
	got = run(func(port int) int { return r.port(p, port) })
	slices.SortFunc(want, byFields)
	slices.SortFunc(got, byFields)
	return want, got
}

// relabelGeoms are the geometries both relabel tables run on: 8×4, 32×8
// (the 256-port fabric) and 16×5, whose Angles is not a power of two.
var relabelGeoms = []Params{{Heights: 8, Angles: 4}, {Heights: 32, Angles: 8}, {Heights: 16, Angles: 5}}

// TestPortRelabelSymmetry_Valid: under every height XOR and angle rotation
// listed, on every geometry and on both steppers, the relabelled run
// delivers exactly the relabelled multiset of (src, dst, latency, hops,
// deflections).
func TestPortRelabelSymmetry_Valid(t *testing.T) {
	maps := []struct{ m, k int }{{0, 0}, {1, 0}, {0, 1}, {5, 3}, {7, 2}, {6, 4}}
	for _, p := range relabelGeoms {
		for _, mk := range maps {
			for _, dense := range []bool{false, true} {
				name := fmt.Sprintf("H%dA%d/m%d_k%d/dense=%v", p.Heights, p.Angles, mk.m, mk.k, dense)
				t.Run(name, func(t *testing.T) {
					want, got := relabelArrivals(t, p, dense, xorShift(mk.m%p.Heights, mk.k%p.Angles))
					if !slices.Equal(want, got) {
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("arrival %d of %d differs: relabelled run %+v, relabelled original %+v",
									i, len(want), got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestPortRelabelSymmetry_Invalid: port permutations that are not fabric
// automorphisms — a height rotation, which does not commute with the
// deflection's bit toggle; a reversal of the height bits, which changes the
// order they are resolved in; and an angle reflection, which runs packets
// against the ring — must change the multiset, so the comparison above can
// fail.
func TestPortRelabelSymmetry_Invalid(t *testing.T) {
	maps := []struct {
		name string
		r    relabel
	}{
		{"height rotation", func(p Params, h, a int) (int, int) { return (h + 1) % p.Heights, a }},
		{"height bit reversal", func(p Params, h, a int) (int, int) {
			return int(bits.Reverse(uint(h)) >> (bits.UintSize - (p.Cylinders() - 1))), a
		}},
		{"angle reflection", func(p Params, h, a int) (int, int) { return h, (p.Angles - a) % p.Angles }},
	}
	for _, p := range relabelGeoms {
		for _, mp := range maps {
			t.Run(fmt.Sprintf("H%dA%d/%s", p.Heights, p.Angles, mp.name), func(t *testing.T) {
				if want, got := relabelArrivals(t, p, false, mp.r); slices.Equal(want, got) {
					t.Fatalf("%s kept all %d arrivals: the symmetry comparison cannot tell an automorphism from another permutation",
						mp.name, len(want))
				}
			})
		}
	}
}
