package check

import (
	"sort"

	"repro/internal/dvswitch"
)

// fabKey identifies a packet at the fabric boundary. The payload is excluded
// deliberately: injected link faults may corrupt it in flight, and a
// corrupted packet is still the same packet for conservation purposes.
type fabKey struct {
	src, dst int
	header   uint64
}

func keyOf(pkt dvswitch.Packet) fabKey {
	return fabKey{src: pkt.Src, dst: pkt.Dst, header: pkt.Header}
}

// bounds derives the livelock and deflection limits for a switch geometry.
// The livelock bound is generous — a packet's age is bounded by the traffic
// that can contend with it, at most one packet per switching node — so it
// never fires on legitimate congestion, only on packets that circle forever.
// The deflection bound equals it, because each deflection costs at least one
// hop.
func bounds(p dvswitch.Params) (maxAge int64, maxDefl int) {
	maxAge = 1024 + 64*int64(p.Cylinders()*p.Heights*p.Angles)
	return maxAge, int(maxAge)
}

// AttachCore installs the per-cycle invariant sweep on a cycle-accurate
// core: after every Step — sparse or dense path alike — the occupancy grid
// is swept and packet conservation, duplication, the resolved-prefix
// property, the deflection bound, and the livelock bound are verified.
// Existing OnCycleEnd / DropHook installations are chained, not replaced.
func (c *Checker) AttachCore(core *dvswitch.Core) {
	if !c.cfg.Switch {
		return
	}
	maxAge, maxDefl := bounds(core.Params())
	seen := make(map[int32]int64) // pool ref → last cycle observed
	prevDrop := core.DropHook
	core.DropHook = func(pkt dvswitch.Packet) {
		if prevDrop != nil {
			prevDrop(pkt)
		}
		c.FabricDrop(pkt)
	}
	prevEnd := core.OnCycleEnd
	core.OnCycleEnd = func(co *dvswitch.Core) {
		if prevEnd != nil {
			prevEnd(co)
		}
		c.sweep(co, seen, maxAge, maxDefl)
	}
}

// sweep runs the per-cycle switch invariants on one core.
func (c *Checker) sweep(co *dvswitch.Core, seen map[int32]int64, maxAge int64, maxDefl int) {
	c.res.CyclesChecked++
	cyc := co.Cycle()
	p := co.Params()
	L := p.Cylinders() - 1
	n := 0
	co.ForEachInFlight(func(id int32, cl, h, a int, pkt dvswitch.Packet) {
		n++
		if seen[id] == cyc {
			c.violate("switch", "duplication", cyc,
				"pool ref %d occupies more than one switching node", id)
		}
		seen[id] = cyc
		if cl >= 1 {
			// Resolved-prefix: the top cl height bits must already match the
			// destination's, or the self-routing descent cannot terminate.
			dh, _ := p.PortCoord(pkt.Dst)
			shift := uint(L - cl)
			if h>>shift != dh>>shift {
				c.violate("switch", "prefix", cyc,
					"packet src=%d dst=%d at (c=%d h=%d a=%d): height prefix unresolved (dst height %d)",
					pkt.Src, pkt.Dst, cl, h, a, dh)
			}
		}
		if int64(pkt.Hops) > maxAge {
			c.violate("switch", "livelock", cyc,
				"packet src=%d dst=%d aged %d cycles in fabric (bound %d)",
				pkt.Src, pkt.Dst, pkt.Hops, maxAge)
		}
		if pkt.Deflections > maxDefl {
			c.violate("switch", "deflections", cyc,
				"packet src=%d dst=%d deflected %d times (bound %d)",
				pkt.Src, pkt.Dst, pkt.Deflections, maxDefl)
		}
	})
	if n != co.InFlight() {
		c.violate("switch", "occupancy", cyc,
			"grid holds %d packet(s) but the in-flight counter says %d", n, co.InFlight())
	}
	st := co.Stats()
	queued := int64(co.QueuedPackets())
	if st.Injected != queued+int64(n)+st.Delivered+st.Dropped {
		c.violate("switch", "conservation", cyc,
			"injected %d != queued %d + in-flight %d + delivered %d + dropped %d",
			st.Injected, queued, n, st.Delivered, st.Dropped)
	}
}

// WrapInject wraps a fabric injection function with boundary accounting.
func (c *Checker) WrapInject(fn func(dvswitch.Packet)) func(dvswitch.Packet) {
	if !c.cfg.Switch {
		return fn
	}
	return func(pkt dvswitch.Packet) {
		c.res.PacketsTracked++
		c.inFab[keyOf(pkt)]++
		fn(pkt)
	}
}

// WrapInjectBatch wraps a batched fabric injection function with the same
// per-packet boundary accounting as WrapInject.
func (c *Checker) WrapInjectBatch(fn func([]dvswitch.Packet)) func([]dvswitch.Packet) {
	if !c.cfg.Switch {
		return fn
	}
	return func(pkts []dvswitch.Packet) {
		for i := range pkts {
			c.res.PacketsTracked++
			c.inFab[keyOf(pkts[i])]++
		}
		fn(pkts)
	}
}

// WrapDeliver wraps a fabric delivery callback with boundary accounting:
// a delivery with no matching injection outstanding is a duplication.
func (c *Checker) WrapDeliver(fn func(dvswitch.Packet)) func(dvswitch.Packet) {
	if !c.cfg.Switch {
		return fn
	}
	return func(pkt dvswitch.Packet) {
		k := keyOf(pkt)
		c.inFab[k]--
		if c.inFab[k] <= 0 {
			if c.inFab[k] < 0 {
				c.violate("switch", "duplication", -1,
					"packet src=%d dst=%d header=%#x delivered more times than injected",
					k.src, k.dst, k.header)
			}
			delete(c.inFab, k)
		}
		fn(pkt)
	}
}

// FabricDrop accounts a packet lost to an injected fault. Install it as the
// FastModel's DropHook; AttachCore chains it into the core's automatically.
func (c *Checker) FabricDrop(pkt dvswitch.Packet) {
	if !c.cfg.Switch {
		return
	}
	k := keyOf(pkt)
	c.inFab[k]--
	if c.inFab[k] <= 0 {
		if c.inFab[k] < 0 {
			c.violate("switch", "duplication", -1,
				"packet src=%d dst=%d header=%#x dropped more times than injected",
				k.src, k.dst, k.header)
		}
		delete(c.inFab, k)
	}
}

// finalizeFabric reports packets injected but never delivered or accounted
// as dropped. Deterministic: the reported sample is the smallest key.
func (c *Checker) finalizeFabric() {
	if len(c.inFab) == 0 {
		return
	}
	lost := 0
	keys := make([]fabKey, 0, len(c.inFab))
	for k, n := range c.inFab {
		if n > 0 {
			lost += n
			keys = append(keys, k)
		}
	}
	if lost == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.header < b.header
	})
	c.violate("switch", "lost", -1,
		"%d packet(s) unaccounted at fabric boundary (first: src=%d dst=%d header=%#x)",
		lost, keys[0].src, keys[0].dst, keys[0].header)
}
