// State capture for both switch engines. Encodings are canonical: the
// occupancy grid is walked in dense-scan order and injection queues in
// ascending port order, never in pool-allocation order, so
// the sparse stepper and the dense reference scan — bit-identical in
// behavior — produce byte-identical state images too.

package dvswitch

import "repro/internal/snapshot"

func encodePacket(e *snapshot.Encoder, pkt Packet) {
	e.Int(pkt.Src)
	e.Int(pkt.Dst)
	e.U64(pkt.Header)
	e.U64(pkt.Payload)
	e.I64(pkt.InjectCycle)
	e.Int(pkt.Hops)
	e.Int(pkt.Deflections)
	e.Bool(pkt.Corrupt)
	e.U32(pkt.Flow)
}

func encodeStats(e *snapshot.Encoder, st Stats) {
	e.I64(st.Injected)
	e.I64(st.Delivered)
	e.I64(st.TotalHops)
	e.I64(st.TotalDeflected)
	e.I64(st.TotalLatency)
	e.I64(st.MaxLatency)
	e.I64(st.QueuedCycles)
	e.I64(st.Dropped)
	e.I64(st.Corrupted)
	for _, b := range st.LatHist {
		e.I64(b)
	}
}

// SnapshotTo serialises the core's complete mutable state: cycle counter,
// in-flight packets in dense fabric-scan order, injection queues in ascending
// port order, dead-node set, fault-probability window, fault-RNG stream
// position, and aggregate statistics. Scratch state (next-occupancy, signal
// bitmap) is empty between Steps and derivable from the grid, so
// it is deliberately not captured.
func (c *Core) SnapshotTo(e *snapshot.Encoder) {
	e.I64(c.cycle)
	e.Int(c.flying)
	e.Int(c.queued)
	// In-flight packets, dense-scan order (cylinder, height, angle).
	occ := 0
	for _, ref := range c.grid {
		if ref != 0 {
			occ++
		}
	}
	e.U32(uint32(occ))
	for idx, ref := range c.grid {
		if ref != 0 {
			e.U32(uint32(idx))
			encodePacket(e, c.packetAt(ref))
		}
	}
	// Injection queues, ascending port order, FIFO order within a port.
	for port := range c.inq {
		q := &c.inq[port]
		e.U32(uint32(q.n))
		pg, i := q.head, q.hi
		for k := 0; k < q.n; k++ {
			if i == qpageLen {
				pg, i = pg.next, 0
			}
			encodePacket(e, c.queuedPacket(port, pg, i))
			i++
		}
	}
	// Dead switching nodes (kill/revive schedules mutate this mid-run).
	dead := 0
	for _, f := range c.faulty {
		if f {
			dead++
		}
	}
	e.U32(uint32(dead))
	for idx, f := range c.faulty {
		if f {
			e.U32(uint32(idx))
		}
	}
	// Probabilistic fault configuration and stream position.
	e.F64(c.fp.Drop)
	e.F64(c.fp.Corrupt)
	e.I64(c.fp.StartCycle)
	e.I64(c.fp.EndCycle)
	e.Bool(c.frng != nil)
	if c.frng != nil {
		e.U64(c.frng.State())
	}
	encodeStats(e, c.stats)
}

// SnapshotTo serialises the engine: pump arming plus the full core image.
// The pending pump event itself lives in the kernel queue and is covered by
// the kernel section's fingerprint.
func (eng *Engine) SnapshotTo(e *snapshot.Encoder) {
	e.Bool(eng.armed)
	eng.core.SnapshotTo(e)
}

// SnapshotTo serialises the fast model: per-port injection/ejection link
// occupancy, the contention RNG position, every per-source-port fault stream
// position, aggregate statistics, and the delivery trains. Only a train's
// head is a kernel event (covered by the kernel section's fingerprint); the
// entries behind it exist nowhere else, so each train is written out in
// ascending port order, head first: entry count, then per entry its firing
// key (done, seq) and every member packet with its injection time.
func (m *FastModel) SnapshotTo(e *snapshot.Encoder) {
	for i := range m.in {
		e.Time(m.in[i].BusyUntil())
		e.Time(m.in[i].Busy)
	}
	for i := range m.out {
		e.Time(m.out[i].BusyUntil())
		e.Time(m.out[i].Busy)
	}
	e.U64(m.rng.State())
	e.U32(uint32(len(m.frng)))
	for _, r := range m.frng {
		e.U64(r.State())
	}
	encodeStats(e, m.st)
	for i := range m.trains {
		n := 0
		for ev := m.trains[i].head; ev != nil; ev = ev.next {
			n++
		}
		e.U32(uint32(n))
		for ev := m.trains[i].head; ev != nil; ev = ev.next {
			e.Time(ev.done)
			e.U64(ev.seq)
			n = 0
			for d := ev; d != nil; d = d.more {
				n++
			}
			e.U32(uint32(n))
			for d := ev; d != nil; d = d.more {
				encodePacket(e, d.pkt)
				e.Time(d.now)
			}
		}
	}
}
