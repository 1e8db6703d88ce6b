package dvswitch

import (
	"testing"

	"repro/internal/sim"
)

// TestTrafficOffer pins where each pattern sends one cycle's packets: which
// ports inject, to which ports, and when a full queue holds a source back.
func TestTrafficOffer(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4} // 16 ports
	tests := []struct {
		name    string
		tr      Traffic
		prefill int // packets queued at every port before the cycle
		check   func(t *testing.T, pkts []Packet)
	}{
		{name: "tornado sends half way round the endpoints",
			tr: Traffic{Pattern: "tornado", Load: 1, QueueCap: 8},
			check: func(t *testing.T, pkts []Packet) {
				if len(pkts) != 16 {
					t.Fatalf("%d packets, want 16", len(pkts))
				}
				for _, pkt := range pkts {
					if pkt.Dst != (pkt.Src+8)%16 {
						t.Errorf("%d -> %d, want -> %d", pkt.Src, pkt.Dst, (pkt.Src+8)%16)
					}
				}
			}},
		{name: "strided endpoints send only to endpoints",
			tr: Traffic{Load: 1, Sources: 4, Stride: 4, QueueCap: 8},
			check: func(t *testing.T, pkts []Packet) {
				if len(pkts) != 4 {
					t.Fatalf("%d packets, want 4", len(pkts))
				}
				for i, pkt := range pkts {
					if pkt.Src != 4*i || pkt.Dst%4 != 0 {
						t.Errorf("packet %d: %d -> %d, want from %d to a multiple of 4", i, pkt.Src, pkt.Dst, 4*i)
					}
				}
			}},
		{name: "a queue past the cap holds its source back",
			tr: Traffic{Load: 1, QueueCap: 3}, prefill: 4,
			check: func(t *testing.T, pkts []Packet) {
				if len(pkts) != 0 {
					t.Errorf("%d packets past a full queue", len(pkts))
				}
			}},
		{name: "zero load offers nothing",
			tr: Traffic{Pattern: "hotspot", Hot: 5, QueueCap: 8},
			check: func(t *testing.T, pkts []Packet) {
				if len(pkts) != 0 {
					t.Errorf("%d packets at zero load", len(pkts))
				}
			}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewCore(geom)
			for port := 0; port < geom.Ports(); port++ {
				for k := 0; k < tt.prefill; k++ {
					c.Inject(Packet{Src: port, Dst: port})
				}
			}
			var pkts []Packet
			tt.tr.Offer(c, sim.NewRNG(3), func(pkt Packet) Packet { pkts = append(pkts, pkt); return pkt })
			tt.check(t, pkts)
		})
	}
}

// TestTrafficBursts: a bursty source injects in runs of whole 16-packet
// bursts, back to back or apart, and every source bursts at some point.
func TestTrafficBursts(t *testing.T) {
	geom := Params{Heights: 4, Angles: 4}
	c := NewCore(geom)
	tr := Traffic{Pattern: "bursty", Load: 1, QueueCap: 1 << 20}
	rng := sim.NewRNG(9)
	const cycles = 400
	on := make([][]bool, geom.Ports())
	for cy := 0; cy < cycles; cy++ {
		for src := range on {
			on[src] = append(on[src], false)
		}
		tr.Offer(c, rng, func(pkt Packet) Packet { on[pkt.Src][cy] = true; return pkt })
	}
	for src, cyc := range on {
		run, bursts := 0, 0
		for cy, inj := range append(cyc, false) {
			switch {
			case inj:
				run++
			case run > 0:
				if run%16 != 0 && cy != cycles {
					t.Errorf("port %d: a run of %d injections ends at cycle %d, want whole bursts of 16", src, run, cy)
				}
				bursts += run / 16
				run = 0
			}
		}
		if bursts == 0 {
			t.Errorf("port %d never completed a burst in %d cycles", src, cycles)
		}
	}
}
