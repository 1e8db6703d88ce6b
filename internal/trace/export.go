package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

func sortedStates(s []StateRec) []StateRec {
	cp := append([]StateRec(nil), s...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].T0 < cp[j].T0 })
	return cp
}

func sortedMessages(m []MsgRec) []MsgRec {
	cp := append([]MsgRec(nil), m...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].T0 < cp[j].T0 })
	return cp
}

// ReadCSV parses a trace previously written by WriteCSV, reconstructing the
// recorder (times round-trip at the CSV's microsecond precision: 1 ns).
func ReadCSV(r io.Reader) (*Recorder, error) {
	rec := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# "):
			section = strings.TrimPrefix(line, "# ")
			continue
		case strings.HasPrefix(line, "node,") || strings.HasPrefix(line, "src,"):
			continue // column header
		}
		f := strings.Split(line, ",")
		switch section {
		case "states":
			if len(f) != 4 {
				return nil, fmt.Errorf("trace csv line %d: want 4 state fields, got %d", lineNo, len(f))
			}
			node, err1 := strconv.Atoi(f[0])
			t0, err2 := parseMicros(f[2])
			t1, err3 := parseMicros(f[3])
			if err := firstErr(err1, err2, err3); err != nil {
				return nil, fmt.Errorf("trace csv line %d: %v", lineNo, err)
			}
			rec.State(node, f[1], t0, t1)
		case "messages":
			if len(f) != 5 {
				return nil, fmt.Errorf("trace csv line %d: want 5 message fields, got %d", lineNo, len(f))
			}
			src, err1 := strconv.Atoi(f[0])
			dst, err2 := strconv.Atoi(f[1])
			t0, err3 := parseMicros(f[2])
			t1, err4 := parseMicros(f[3])
			bytes, err5 := strconv.Atoi(f[4])
			if err := firstErr(err1, err2, err3, err4, err5); err != nil {
				return nil, fmt.Errorf("trace csv line %d: %v", lineNo, err)
			}
			rec.Message(src, dst, t0, t1, bytes)
		default:
			return nil, fmt.Errorf("trace csv line %d: data before a section header", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

func parseMicros(s string) (sim.Time, error) {
	us, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return sim.Time(us*float64(sim.Microsecond) + 0.5), nil // µs -> Time, rounded
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ChromeEvents converts the trace to Chrome trace events: one "X" span per
// state interval (lane = node), one "X" span per message (lane = destination
// node, tid = source). States come first, then messages, each in time order —
// the same order WriteCSV emits — so the export is deterministic.
func (r *Recorder) ChromeEvents() *obs.Pages[obs.TraceEvent] {
	evs := new(obs.Pages[obs.TraceEvent])
	for _, s := range sortedStates(r.States) {
		evs.Append(obs.TraceEvent{
			Name: "state:" + s.State, Cat: "state", Ph: "X",
			TS: s.T0.Micros(), Dur: (s.T1 - s.T0).Micros(), PID: s.Node,
		})
	}
	for _, m := range sortedMessages(r.Messages) {
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
// sampled packet lifecycles (obs.WriteChromeTrace).
func (r *Recorder) WriteChrome(w io.Writer) error {
	return obs.WriteChromeTrace(w, r.ChromeEvents())
}
