package attr

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// PacketEvents appends the run's "packet" spans to evs: one "X" event per
// flow the fabric delivered by end — the rule Figure 5's trace uses — from
// the packet's hand-off to the switch to its delivery (the inject-wait and
// fabric stages), with pid = destination node, tid = source node, bytes =
// the tracer's wire size, and the flow's hops and deflections. Of those
// flows it keeps roughly 1-in-every by the tracer's sampling hash of the
// flow's index (id-1); every <= 1 keeps all of them. Events are in flow-id
// order. Nil-safe.
func (t *Tracer) PacketEvents(evs *obs.Pages[obs.TraceEvent], end sim.Time, every uint64) {
	if t == nil {
		return
	}
	for i, n := 0, t.flows.Len(); i < n; i++ {
		f := t.flows.At(i)
		if !f.fabric || !t.sampled(uint64(i), every) {
			continue
		}
		inject, eject := f.fabricSpan()
		if eject > end {
			continue
		}
		src, dst := int(f.Src), int(f.Dst)
		evs.Append(obs.TraceEvent{
			Name: "packet", Cat: "net", Ph: "X",
			TS: us(inject), Dur: us(eject - inject), PID: dst, TID: src,
			Args: obs.PacketArgs{Src: src, Dst: dst, Bytes: t.wireBytes,
				Hops: int(f.Hops), Deflections: int(f.Deflections)},
		})
	}
}

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
					TS: us(cur), Dur: us(d), PID: node, TID: int(s), Args: args,
				})
			}
			cur += d
		}
		evs.Append(obs.TraceEvent{Name: "flow", Cat: "attr", Ph: "s", TS: us(f.Issue),
			PID: src, TID: 0, ID: uint64(f.ID), Args: args})
		evs.Append(obs.TraceEvent{Name: "flow", Cat: "attr", Ph: "f", TS: us(f.End),
			PID: dst, TID: 0, ID: uint64(f.ID), Args: args})
	}
}
