package attr

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// ChromeEvents appends completed flows to evs as Chrome trace events riding
// the obs exporter: each stage that took time becomes an "X" span (pid = the
// node doing the work, tid = stage lane), and each flow gets an "s"/"f"
// flow-event pair binding the source-side issue to the destination-side
// completion so Perfetto draws the causal arrow across nodes. Events are
// emitted in flow-id order — byte-deterministic given the same run.
// Nil-safe.
func (t *Tracer) ChromeEvents(evs *obs.Pages[obs.TraceEvent]) {
	if t == nil {
		return
	}
	usf := func(tm sim.Time) float64 { return float64(tm) / float64(sim.Microsecond) }
	for i, n := 0, t.flows.Len(); i < n; i++ {
		f := t.flows.At(i)
		if !f.Done {
			continue
		}
		src, dst := int(f.Src), int(f.Dst)
		args := obs.PacketArgs{Src: src, Dst: dst, Hops: int(f.Hops), Deflections: int(f.Deflections)}
		// Stages up to and including fabric happen source-side (or in the
		// fabric); eject and drain are destination-side lanes.
		cur := f.Issue
		for s := 0; s < NumStages; s++ {
			d := f.Dur[s]
			if d > 0 {
				node := src
				if Stage(s) >= StageEject {
					node = dst
				}
				evs.Append(obs.TraceEvent{
					Name: Stage(s).Name(), Cat: "attr:" + f.Kind.Name(), Ph: "X",
					TS: usf(cur), Dur: usf(d), PID: node, TID: int(s), Args: args,
				})
			}
			cur += d
		}
		evs.Append(obs.TraceEvent{Name: "flow", Cat: "attr", Ph: "s", TS: usf(f.Issue),
			PID: src, TID: 0, ID: uint64(f.ID), Args: args})
		evs.Append(obs.TraceEvent{Name: "flow", Cat: "attr", Ph: "f", TS: usf(f.End),
			PID: dst, TID: 0, ID: uint64(f.ID), Args: args})
	}
}
