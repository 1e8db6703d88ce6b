package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// WriteParaver emits the trace in Paraver's .prv format (with companion
// .pcf and .row metadata), the toolchain the paper itself uses: its Figure 5
// is an Extrae trace rendered in Paraver. Times are nanoseconds; each
// simulated node, up to the largest id a record names, maps to one Paraver
// task with one thread. pcf and row may be nil.
//
// State records:  1:cpu:appl:task:thread:begin:end:state
// Comm records:   3:cpu_s:1:task_s:1:tsend:tsend:cpu_r:1:task_r:1:trecv:trecv:size:tag
func (l *Log) WriteParaver(prv, pcf, row io.Writer) error {
	nodes := l.maxNode() + 1
	_, _, span := l.Summary()
	dur := int64(span / sim.Nanosecond)

	// Header: #Paraver (dd/mm/yy at hh:mm):duration_ns:nNodes(cpus):nAppl:appl(nTasks(threads:node,...))
	nodeList := make([]string, nodes)
	for i := range nodeList {
		nodeList[i] = fmt.Sprintf("1:%d", i+1)
	}
	if _, err := fmt.Fprintf(prv, "#Paraver (01/01/17 at 00:00):%d_ns:%d(%s):1:%d(%s)\n",
		dur, nodes, onesList(nodes), nodes, joinComma(nodeList)); err != nil {
		return err
	}

	// Stable state-name → Paraver state-id mapping (1 = Running), numbered
	// in writing order.
	states := sortedStates(l.States)
	stateID := map[string]int{"compute": 1}
	var stateNames []string
	for _, s := range states {
		if _, ok := stateID[s.State]; !ok {
			stateID[s.State] = len(stateID) + 1
			stateNames = append(stateNames, s.State)
		}
	}

	// Records must be time-sorted; at equal times states come first, and
	// each kind keeps its writing order.
	type rec struct {
		t    sim.Time
		line string
	}
	var recs []rec
	for _, s := range states {
		recs = append(recs, rec{s.T0, fmt.Sprintf("1:%d:1:%d:1:%d:%d:%d",
			s.Node+1, s.Node+1, int64(s.T0/sim.Nanosecond), int64(s.T1/sim.Nanosecond),
			stateID[s.State])})
	}
	for _, m := range sortedMessages(l.Messages) {
		recs = append(recs, rec{m.T0, fmt.Sprintf("3:%d:1:%d:1:%d:%d:%d:1:%d:1:%d:%d:%d:0",
			m.Src+1, m.Src+1, int64(m.T0/sim.Nanosecond), int64(m.T0/sim.Nanosecond),
			m.Dst+1, m.Dst+1, int64(m.T1/sim.Nanosecond), int64(m.T1/sim.Nanosecond),
			m.Bytes)})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].t < recs[j].t })
	for _, rc := range recs {
		if _, err := fmt.Fprintln(prv, rc.line); err != nil {
			return err
		}
	}

	// .pcf: state-value legend.
	if pcf != nil {
		fmt.Fprint(pcf, "DEFAULT_OPTIONS\n\nLEVEL               THREAD\nUNITS               NANOSEC\n\n")
		fmt.Fprintln(pcf, "STATES")
		fmt.Fprintln(pcf, "0    Idle")
		fmt.Fprintln(pcf, "1    Running")
		for _, name := range stateNames {
			fmt.Fprintf(pcf, "%d    %s\n", stateID[name], name)
		}
	}
	// .row: object names.
	if row != nil {
		fmt.Fprintf(row, "LEVEL NODE SIZE %d\n", nodes)
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(row, "node%d\n", i)
		}
		fmt.Fprintf(row, "\nLEVEL THREAD SIZE %d\n", nodes)
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(row, "THREAD 1.%d.1\n", i+1)
		}
	}
	return nil
}

// maxNode returns the largest node id any record names.
func (l *Log) maxNode() int {
	m := 0
	for _, s := range l.States {
		m = max(m, s.Node)
	}
	for _, msg := range l.Messages {
		m = max(m, msg.Src, msg.Dst)
	}
	return m
}

func onesList(n int) string {
	out := make([]string, n)
	for i := range out {
		out[i] = "1"
	}
	return joinComma(out)
}

func joinComma(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s
}
