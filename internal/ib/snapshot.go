// State capture for the InfiniBand fabric: every NIC and leaf↔spine link's
// occupancy horizon (the state that carries congestion and scheduled flap
// outages forward in time) plus aggregate telemetry.

package ib

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// SnapshotTo serialises the fabric's mutable state: per-node NIC pipes, the
// up/down uplink pipes in index order, and the stats block. Pending flap
// events live in the kernel queue and are covered by its fingerprint.
func (f *Fabric) SnapshotTo(e *snapshot.Encoder) {
	pipes := func(ps []sim.Pipe) {
		for i := range ps {
			e.Time(ps[i].BusyUntil())
			e.Time(ps[i].Busy)
		}
	}
	pipes(f.nicOut)
	pipes(f.nicIn)
	pipes(f.up)
	pipes(f.down)
	e.I64(f.st.Messages)
	e.I64(f.st.Bytes)
	e.I64(f.st.InterLeaf)
	e.I64(f.st.Flaps)
	e.I64(f.st.FlapsRecovered)
	e.Time(f.st.FlapDowntime)
}
