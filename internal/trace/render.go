package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// RenderASCII draws the trace as a terminal Gantt chart, the poor man's
// Paraver view of Figure 5: one lane per node (compute intervals filled),
// plus a message-density lane showing where the wire was busy.
//
//	node 0 |####..##..####   |
//	node 1 |..###..####..##  |
//	msgs   |2313 1 42  1     |
//
// width is the number of time buckets (columns); values < 1 fall back to 80.
//
// Edge cases: a trace with no records at all renders "(empty trace)"; a
// trace whose records are all instantaneous at t=0 (zero span) still renders,
// with every record in the first column; node labels widen as needed, so
// lanes stay aligned past 100 nodes.
func (l *Log) RenderASCII(w io.Writer, width int) error {
	if width < 1 {
		width = 80
	}
	nStates, nMsgs, span := l.Summary()
	if nStates == 0 && nMsgs == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	bucket := func(t sim.Time) int {
		if span == 0 {
			return 0 // all records are instantaneous at t=0
		}
		b := int(int64(t) * int64(width) / int64(span))
		if b >= width {
			b = width - 1
		}
		return b
	}
	maxNode := l.maxNode()
	// Node lanes: '#' where the node computes, '~' where it is in another
	// recorded state, '.' otherwise.
	lanes := make([][]byte, maxNode+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	for _, s := range sortedStates(l.States) {
		if s.T1 < s.T0 {
			continue // malformed interval; never paint backwards
		}
		ch := byte('~')
		if s.State == "compute" {
			ch = '#'
		}
		for b := bucket(s.T0); b <= bucket(s.T1); b++ {
			lanes[s.Node][b] = ch
		}
	}
	// Message lane: digit = messages delivered in the bucket (9+ saturates).
	msgCount := make([]int, width)
	for _, m := range l.Messages {
		msgCount[bucket(m.T1)]++
	}
	msgLane := make([]byte, width)
	for i, c := range msgCount {
		switch {
		case c == 0:
			msgLane[i] = ' '
		case c > 9:
			msgLane[i] = '+'
		default:
			msgLane[i] = byte('0' + c)
		}
	}
	if _, err := fmt.Fprintf(w, "trace span %v, %d columns of %v each ('#'=compute, '~'=other state)\n",
		span, width, span/sim.Time(width)); err != nil {
		return err
	}
	// Label column sized to the widest node id (minimum 2), so lanes stay
	// aligned for any node count.
	lw := len(fmt.Sprintf("%d", maxNode))
	if lw < 2 {
		lw = 2
	}
	for i, lane := range lanes {
		if _, err := fmt.Fprintf(w, "node %-*d |%s|\n", lw, i, lane); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "msgs %-*s |%s|\n", lw, "", msgLane)
	return err
}
