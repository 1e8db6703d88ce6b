package dvswitch

import (
	"cmp"

	"repro/internal/sim"
)

// Traffic is the synthetic offered load of the switch studies (extA, extB,
// extH, extL and dvswitchsim): it drives a standalone Core one cycle at a
// time. Sources endpoints sit Stride ports apart (0 means every port, and a
// stride of 1), and each cycle every endpoint draws whether it injects.
type Traffic struct {
	// Pattern picks destinations: "uniform" (the default), "hotspot" (a
	// quarter of the packets to Hot, the rest uniform), "tornado" (half way
	// round the endpoints) or "bursty" (uniform, in on/off bursts of 16).
	Pattern string
	// Load is the offered packets per endpoint per cycle.
	Load float64
	// Hot is the hotspot pattern's destination port.
	Hot int
	// Sources and Stride place the endpoints at ports 0, Stride, 2*Stride...
	Sources, Stride int
	// QueueCap holds back an endpoint whose injection queue holds more than
	// QueueCap packets; its draw for the cycle is spent.
	QueueCap int

	burst []int // packets left in each endpoint's current burst
}

// queuedPorts is what Traffic offers load to: a Core, or (in tests) a fabric
// that injects through the injection queues of the Core behind it.
type queuedPorts interface {
	Params() Params
	QueueLen(port int) int
	Inject(pkt Packet)
}

// Offer injects one cycle of traffic into c, drawing from rng in a fixed
// order: per endpoint, whether it injects (a burst start when a bursty
// endpoint is between bursts), then its destination. stamp, when non-nil,
// returns each packet as it is to be injected. The caller steps c.
func (t *Traffic) Offer(c queuedPorts, rng *sim.RNG, stamp func(Packet) Packet) {
	n, stride := cmp.Or(t.Sources, c.Params().Ports()), cmp.Or(t.Stride, 1)
	if t.Pattern == "bursty" && t.burst == nil {
		t.burst = make([]int, n)
	}
	for i := 0; i < n; i++ {
		src := i * stride
		inject := rng.Float64() < t.Load
		if t.burst != nil {
			switch {
			case t.burst[i] > 0:
				inject = true
				t.burst[i]--
			case rng.Float64() < t.Load/16:
				t.burst[i] = 15
				inject = true
			default:
				inject = false
			}
		}
		if !inject || c.QueueLen(src) > t.QueueCap {
			continue
		}
		var dst int
		switch t.Pattern {
		case "hotspot":
			if rng.Float64() < 0.25 {
				dst = t.Hot
			} else {
				dst = stride * rng.Intn(n)
			}
		case "tornado":
			dst = stride * ((i + n/2) % n)
		default:
			dst = stride * rng.Intn(n)
		}
		pkt := Packet{Src: src, Dst: dst}
		if stamp != nil {
			pkt = stamp(pkt)
		}
		c.Inject(pkt)
	}
}
