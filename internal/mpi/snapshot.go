// State capture for the MPI layer: per-rank send telemetry, collective
// sequence numbers, and digests of the posted/unexpected message queues.
// Message payloads travel inside request objects owned by rank goroutines
// and are not captured; the queues' envelopes and a payload hash are, so a
// repeated run that matches messages in another order is caught
// byte-for-byte.

package mpi

import "repro/internal/snapshot"

func hashBytes(fp uint64, p []byte) uint64 {
	const prime64 = 1099511628211
	for _, b := range p {
		fp ^= uint64(b)
		fp *= prime64
	}
	return fp
}

// SnapshotTo serialises the world's mutable state rank by rank.
func (w *World) SnapshotTo(e *snapshot.Encoder) {
	for _, c := range w.comms {
		e.Int(c.collSeq)
		e.I64(c.SentMessages)
		e.I64(c.SentBytes)
		e.U32(uint32(len(c.posted)))
		for _, req := range c.posted {
			e.Int(req.src)
			e.Int(req.tag)
		}
		e.U32(uint32(len(c.unexpected)))
		for _, m := range c.unexpected {
			e.Int(m.src)
			e.Int(m.tag)
			e.Int(m.bytes)
			e.Int(len(m.data))
			e.U64(hashBytes(14695981039346656037, m.data))
		}
	}
}
