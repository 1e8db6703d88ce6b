package trace

import (
	"cmp"
	"io"
	"slices"
	"strings"

	"repro/internal/obs"
)

// sortedStates returns the states in writing order: a total order on every
// field a writer prints, so the bytes do not depend on recording order.
func sortedStates(s []StateRec) []StateRec {
	cp := slices.Clone(s)
	slices.SortFunc(cp, func(a, b StateRec) int {
		return cmp.Or(cmp.Compare(a.T0, b.T0), cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.T1, b.T1), strings.Compare(a.State, b.State))
	})
	return cp
}

// sortedMessages returns the messages in writing order, a total order on
// every printed field as for sortedStates.
func sortedMessages(m []MsgRec) []MsgRec {
	cp := slices.Clone(m)
	slices.SortFunc(cp, func(a, b MsgRec) int {
		return cmp.Or(cmp.Compare(a.T0, b.T0), cmp.Compare(a.T1, b.T1),
			cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Bytes, b.Bytes))
	})
	return cp
}

// ChromeEvents converts the trace to Chrome trace events: one "X" span per
// state interval (lane = node), one "X" span per message (lane = destination
// node, tid = source). States come first, then messages, each in the order
// WriteCSV emits them, so the export is deterministic.
func (l *Log) ChromeEvents() *obs.Pages[obs.TraceEvent] {
	evs := new(obs.Pages[obs.TraceEvent])
	for _, s := range sortedStates(l.States) {
		evs.Append(obs.TraceEvent{
			Name: "state:" + s.State, Cat: "state", Ph: "X",
			TS: s.T0.Micros(), Dur: (s.T1 - s.T0).Micros(), PID: s.Node,
		})
	}
	for _, m := range sortedMessages(l.Messages) {
		evs.Append(obs.TraceEvent{
			Name: "msg", Cat: "net", Ph: "X",
			TS: m.T0.Micros(), Dur: (m.T1 - m.T0).Micros(),
			PID: m.Dst, TID: m.Src,
			Args: obs.PacketArgs{Src: m.Src, Dst: m.Dst, Bytes: m.Bytes},
		})
	}
	return evs
}

// WriteChrome writes the trace as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing — the same container cluster runs use for
// their packet spans (obs.WriteChromeTrace).
func (l *Log) WriteChrome(w io.Writer) error {
	return obs.WriteChromeTrace(w, l.ChromeEvents())
}
