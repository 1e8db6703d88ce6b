// Package trace writes execution traces of simulated runs: per-node state
// intervals (compute) and inter-node messages. It plays the role the Extrae
// instrumentation plays in the paper (Figure 5's GUPS trace): making visible
// whether a workload's communication pattern has exploitable regularity.
//
// The package records nothing itself. A run traced with attr.Config.Trace
// keeps every flow and compute span in the attribution tracer, and the
// tracer's Summary projects them into a Log; the writers here (CSV, ASCII
// Gantt, Paraver, Chrome) read that Log.
package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sim"
)

// StateRec is one interval during which a node was in a named state.
type StateRec struct {
	Node  int
	State string
	T0    sim.Time
	T1    sim.Time
}

// MsgRec is one message between two nodes.
type MsgRec struct {
	Src   int
	Dst   int
	T0    sim.Time // injection
	T1    sim.Time // delivery
	Bytes int
}

// Log is one run's trace. Every writer sorts the records itself, on a total
// order of the fields it prints, so the order of the slices does not matter.
type Log struct {
	States   []StateRec
	Messages []MsgRec
}

// WriteCSV emits the trace as two CSV sections: states, then messages, both
// sorted by start time. Times are microseconds.
func (l *Log) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# states"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "node,state,t0_us,t1_us"); err != nil {
		return err
	}
	for _, s := range sortedStates(l.States) {
		if _, err := fmt.Fprintf(w, "%d,%s,%.3f,%.3f\n", s.Node, s.State, s.T0.Micros(), s.T1.Micros()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "# messages"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "src,dst,t0_us,t1_us,bytes"); err != nil {
		return err
	}
	for _, m := range sortedMessages(l.Messages) {
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%d\n", m.Src, m.Dst, m.T0.Micros(), m.T1.Micros(), m.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns counts and the span of the trace.
func (l *Log) Summary() (states, msgs int, span sim.Time) {
	for _, s := range l.States {
		span = max(span, s.T1)
	}
	for _, m := range l.Messages {
		span = max(span, m.T1)
	}
	return len(l.States), len(l.Messages), span
}

// GanttWidth is the column count of the ASCII Gantt a ".txt" trace file
// holds.
const GanttWidth = 96

// formats maps a trace file's extension to its writer.
var formats = map[string]func(l *Log, path string, w io.Writer) error{
	".csv":  func(l *Log, _ string, w io.Writer) error { return l.WriteCSV(w) },
	".json": func(l *Log, _ string, w io.Writer) error { return l.WriteChrome(w) },
	".txt":  func(l *Log, _ string, w io.Writer) error { return l.RenderASCII(w, GanttWidth) },
	".prv":  writeParaverFiles,
}

// CheckPath rejects a trace file name whose extension names no writer:
// ".csv", ".json" (Chrome), ".prv" (Paraver, with ".pcf" and ".row" beside
// it) or ".txt" (ASCII Gantt).
func CheckPath(path string) error {
	if _, ok := formats[filepath.Ext(path)]; !ok {
		return fmt.Errorf("trace file %q: the extension must be .csv, .json, .prv or .txt", path)
	}
	return nil
}

// WriteFile writes the trace to path in the format its extension names (see
// CheckPath).
func (l *Log) WriteFile(path string) error {
	if err := CheckPath(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = formats[filepath.Ext(path)](l, path, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeParaverFiles writes the .pcf and .row companions of the .prv at path.
func writeParaverFiles(l *Log, path string, prv io.Writer) error {
	base := strings.TrimSuffix(path, ".prv")
	var pcf, row strings.Builder
	if err := l.WriteParaver(prv, &pcf, &row); err != nil {
		return err
	}
	if err := os.WriteFile(base+".pcf", []byte(pcf.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".row", []byte(row.String()), 0o644)
}
