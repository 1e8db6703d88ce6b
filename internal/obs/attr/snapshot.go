// State capture for the attribution tracer. Images are compared, never read
// back (see cluster/checkpoint.go), so the tracer only encodes; a repeat of
// the run must reproduce these bytes exactly at the same capture time —
// including flows still open mid-pipeline and their partial stage stamps.

package attr

import (
	"sort"

	"repro/internal/snapshot"
)

// SnapshotTo serialises the complete tracer state. Nil-safe: a nil tracer
// encodes as an absent marker.
func (t *Tracer) SnapshotTo(e *snapshot.Encoder) {
	if t == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.U64(t.seq)
	e.I64(t.completed)
	e.I64(t.dropped)
	e.I64(t.overflow)
	e.I64(t.epochEvents)

	n := t.flows.Len()
	e.U32(uint32(n))
	for i := 0; i < n; i++ {
		f := t.flows.At(i)
		e.U32(f.ID)
		e.Int(int(f.Src))
		e.Int(int(f.Dst))
		e.U8(uint8(f.Kind))
		e.U32(uint32(f.Epoch))
		e.Time(f.Issue)
		e.Time(f.End)
		for _, d := range f.Dur {
			e.Time(d)
		}
		e.U32(uint32(f.Hops))
		e.U32(uint32(f.Deflections))
		e.Bool(f.Done)
		e.Time(f.last)
	}

	srcs := make([]int, 0, len(t.epochs))
	for s := range t.epochs {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	e.U32(uint32(len(srcs)))
	for _, s := range srcs {
		e.Int(s)
		e.U32(uint32(t.epochs[s]))
	}

	if t.heat == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Int(t.heat.Cylinders)
		e.Int(t.heat.Angles)
		e.I64s(t.heat.Cells)
	}

	if t.cfg.Trace {
		// What only a traced run keeps: message sizes, fabric marks and
		// compute spans.
		for i := 0; i < n; i++ {
			f := t.flows.At(i)
			e.U32(uint32(f.Bytes))
			e.Bool(f.fabric)
		}
		e.U32(uint32(t.computes.Len()))
		for i := 0; i < t.computes.Len(); i++ {
			c := t.computes.At(i)
			e.U32(uint32(c.node))
			e.Time(c.t0)
			e.Time(c.t1)
		}
	}
}
