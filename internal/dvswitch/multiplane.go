package dvswitch

import (
	"fmt"

	"repro/internal/sim"
)

// MultiPlane aggregates N identical switch planes behind one Fabric
// boundary: injection picks a plane by a static hash of (src, dst), so every
// packet of a port pair rides the same plane and per-pair ordering holds even
// though planes progress independently. Deliveries from every plane funnel
// into one callback, and stats merge across planes. Planes share no state, so
// per-plane behavior stays bit-identical to the same plane running alone with
// the same traffic.
type MultiPlane struct {
	planes []Fabric
	parts  [][]Packet // reused per-plane partitions for InjectBatch
	fn     func(pkt Packet)
}

// NewMultiPlane builds a fabric over the given planes, which must agree on
// port count and cycle time. One plane is legal (the hash degenerates to the
// identity); zero planes is not.
func NewMultiPlane(planes []Fabric) *MultiPlane {
	if len(planes) == 0 {
		panic("dvswitch: NewMultiPlane needs at least one plane")
	}
	for _, pl := range planes[1:] {
		if pl.Ports() != planes[0].Ports() || pl.CycleTime() != planes[0].CycleTime() {
			panic(fmt.Sprintf("dvswitch: mismatched planes: %d ports/%v vs %d ports/%v",
				pl.Ports(), pl.CycleTime(), planes[0].Ports(), planes[0].CycleTime()))
		}
	}
	m := &MultiPlane{
		planes: planes,
		parts:  make([][]Packet, len(planes)),
	}
	for _, pl := range planes {
		pl.OnDeliver(m.deliver)
	}
	return m
}

func (m *MultiPlane) deliver(pkt Packet) {
	if m.fn != nil {
		m.fn(pkt)
	}
}

// planeFor picks the plane for one packet.
func (m *MultiPlane) planeFor(src, dst int) int {
	return int(planeHash(src, dst) % uint64(len(m.planes)))
}

// planeHash mixes a port pair into a well-spread 64-bit value
// (splitmix64-style finalisation). The function is part of the simulator's
// determinism contract: changing it changes every multi-plane Report.
func planeHash(src, dst int) uint64 {
	x := uint64(src)<<32 | uint64(uint32(dst))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ports implements Fabric.
func (m *MultiPlane) Ports() int { return m.planes[0].Ports() }

// CycleTime implements Fabric.
func (m *MultiPlane) CycleTime() sim.Time { return m.planes[0].CycleTime() }

// OnDeliver implements Fabric.
func (m *MultiPlane) OnDeliver(fn func(pkt Packet)) { m.fn = fn }

// Inject implements Fabric.
func (m *MultiPlane) Inject(pkt Packet) {
	m.planes[m.planeFor(pkt.Src, pkt.Dst)].Inject(pkt)
}

// InjectBatch implements Fabric: the batch is partitioned into per-plane
// sub-batches preserving slice order within each plane. Planes share no
// state, so this is semantically identical to per-element Inject calls
// while keeping each plane's batch amortisation.
func (m *MultiPlane) InjectBatch(pkts []Packet) {
	for i := range m.parts {
		m.parts[i] = m.parts[i][:0]
	}
	for i := range pkts {
		pl := m.planeFor(pkts[i].Src, pkts[i].Dst)
		m.parts[pl] = append(m.parts[pl], pkts[i])
	}
	for pl, part := range m.parts {
		if len(part) > 0 {
			m.planes[pl].InjectBatch(part)
		}
	}
}

// FabricStats implements Fabric: the merge of every plane's stats.
func (m *MultiPlane) FabricStats() Stats {
	st := m.planes[0].FabricStats()
	for _, pl := range m.planes[1:] {
		st.Merge(pl.FabricStats())
	}
	return st
}
