// State capture for the dv endpoint: symmetric allocator cursors plus the
// reliable-delivery layer's sequence numbers, scratch carve, barrier epoch,
// and telemetry — the retransmit state two runs of one configuration must
// agree on for the determinism audit to pass.

package dv

import "repro/internal/snapshot"

// SnapshotTo serialises the endpoint's mutable state. In-flight chunk
// verification is driven by the owning node's goroutine and is not captured;
// the per-destination sequence numbers and the scratch layout captured here
// are what a repeated run's retransmit protocol must land on to put identical
// traffic on the wire.
func (e *Endpoint) SnapshotTo(enc *snapshot.Encoder) {
	enc.U32(e.heapNext)
	enc.Int(e.gcNext)
	enc.Bool(e.rel != nil)
	if e.rel == nil {
		return
	}
	r := e.rel
	enc.U32(r.limit)
	enc.U32(r.verifyBase)
	enc.U32(r.seqBase)
	enc.U32(r.flagBase)
	enc.U64s(r.seq)
	enc.U64(r.epoch)
	enc.I64(r.st.Writes)
	enc.I64(r.st.Retransmits)
	enc.I64(r.st.RetryRounds)
	enc.I64(r.st.Failures)
	enc.Time(r.st.RecoveryTime)
}
