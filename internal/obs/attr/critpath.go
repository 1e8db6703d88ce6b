package attr

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// CritStep is one segment of the run's critical path, walked backwards from
// the last node to finish. Kind is "local" (the node ran on its own between
// two message endpoints) or "msg" (the node was waiting on a message; Src is
// the sender the path jumps to).
type CritStep struct {
	Kind  string
	Node  int
	Src   int `json:",omitempty"` // sender, for Kind == "msg"
	T0    sim.Time
	T1    sim.Time
	Bytes int `json:",omitempty"`
}

// traceLog projects the tracer's records onto Figure 5's execution trace:
// one "compute" state per compute span; one message per MPI flow, from issue
// to completion with its size; and one message per flow the fabric delivered
// by end, with t0 = t1 = the delivery (issue plus its stages up to and
// including the fabric) and the tracer's wire size. A dropped packet is never stamped by
// the fabric, and a fast-model delivery scheduled past a cut run's end never
// happened. Records are in id order; the writers sort them.
func (t *Tracer) traceLog(end sim.Time) *trace.Log {
	l := &trace.Log{
		States:   make([]trace.StateRec, t.computes.Len()),
		Messages: make([]trace.MsgRec, 0, t.flows.Len()),
	}
	for i := range l.States {
		c := t.computes.At(i)
		l.States[i] = trace.StateRec{Node: int(c.node), State: "compute", T0: c.t0, T1: c.t1}
	}
	for i, n := 0, t.flows.Len(); i < n; i++ {
		f := t.flows.At(i)
		m := trace.MsgRec{Src: int(f.Src), Dst: int(f.Dst)}
		switch {
		case f.Kind == KindMPI:
			m.T0, m.T1, m.Bytes = f.Issue, f.End, int(f.Bytes)
		case f.fabric:
			_, at := f.fabricSpan()
			if at > end {
				continue
			}
			m.T0, m.T1, m.Bytes = at, at, t.wireBytes
		default:
			continue
		}
		l.Messages = append(l.Messages, m)
	}
	return l
}

// CriticalPath reconstructs the chain of waits the run actually blocked on
// from an execution trace: start at the node whose activity ends last, and
// repeatedly ask "what was the latest-arriving message into this node before
// the current time?" — charge the interval after that arrival to local work
// on the node, then jump to the sender at its injection time. The walk is
// deterministic (ties broken by max T1, then max T0, min Src and min Bytes)
// and terminates because every jump moves strictly backwards in time
// (messages with T0 == T1, as DV zero-copy records have, still jump to the
// sender but only when T0 is strictly earlier than the current position).
//
// Steps are returned in forward (chronological) order.
func CriticalPath(l *trace.Log) []CritStep {
	if l == nil || (len(l.States) == 0 && len(l.Messages) == 0) {
		return nil
	}
	// End of the run: node with the max activity end time (min node id ties).
	var endNode int
	var endT sim.Time
	found := false
	consider := func(node int, t sim.Time) {
		if !found || t > endT || (t == endT && node < endNode) {
			endNode, endT, found = node, t, true
		}
	}
	for _, s := range l.States {
		consider(s.Node, s.T1)
	}
	for _, m := range l.Messages {
		consider(m.Dst, m.T1)
	}
	if !found {
		return nil
	}
	// Index inbound messages per destination, sorted by arrival time so the
	// walk can binary-search "latest arrival at or before cur".
	inbound := make(map[int][]trace.MsgRec)
	for _, m := range l.Messages {
		inbound[m.Dst] = append(inbound[m.Dst], m)
	}
	for dst := range inbound {
		ms := inbound[dst]
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].T1 != ms[j].T1 {
				return ms[i].T1 < ms[j].T1
			}
			if ms[i].T0 != ms[j].T0 {
				return ms[i].T0 < ms[j].T0
			}
			if ms[i].Src != ms[j].Src {
				return ms[i].Src < ms[j].Src
			}
			return ms[i].Bytes < ms[j].Bytes
		})
	}
	var rev []CritStep
	node, cur := endNode, endT
	const maxSteps = 1 << 16 // safety cap; real paths are far shorter
	for len(rev) < maxSteps {
		ms := inbound[node]
		// Latest message into node with arrival ≤ cur and injection < cur —
		// the strict T0 < cur progress rule guarantees every jump rewinds.
		i := sort.Search(len(ms), func(i int) bool { return ms[i].T1 > cur }) - 1
		for i >= 0 && ms[i].T0 >= cur {
			i--
		}
		if i < 0 {
			// No earlier dependency: the head of the path is local work.
			if cur > 0 {
				rev = append(rev, CritStep{Kind: "local", Node: node, T0: 0, T1: cur})
			}
			break
		}
		m := ms[i]
		if m.T1 < cur {
			rev = append(rev, CritStep{Kind: "local", Node: node, T0: m.T1, T1: cur})
		}
		rev = append(rev, CritStep{Kind: "msg", Node: m.Dst, Src: m.Src, T0: m.T0, T1: m.T1, Bytes: m.Bytes})
		node, cur = m.Src, m.T0
	}
	// Reverse into chronological order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WriteCritPath renders the critical path as a fixed-width table.
func WriteCritPath(w io.Writer, steps []CritStep) error {
	if len(steps) == 0 {
		_, err := fmt.Fprintln(w, "critical path: (no trace)")
		return err
	}
	var local, msg sim.Time
	for _, st := range steps {
		if st.Kind == "local" {
			local += st.T1 - st.T0
		} else {
			msg += st.T1 - st.T0
		}
	}
	if _, err := fmt.Fprintf(w, "critical path: %d steps, %.3f us local, %.3f us in messages\n",
		len(steps), us(local), us(msg)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %-6s %10s %10s %10s  %s\n",
		"kind", "node", "t0_us", "t1_us", "dur_us", "detail"); err != nil {
		return err
	}
	for _, st := range steps {
		detail := ""
		if st.Kind == "msg" {
			detail = fmt.Sprintf("from node %d, %d bytes", st.Src, st.Bytes)
		}
		if _, err := fmt.Fprintf(w, "%-6s %-6d %10.3f %10.3f %10.3f  %s\n",
			st.Kind, st.Node, us(st.T0), us(st.T1), us(st.T1-st.T0), detail); err != nil {
			return err
		}
	}
	return nil
}
