package obs

import (
	"fmt"
	"io"
	"strings"
)

// TraceEvent is one Chrome trace-event ("X" complete events for spans, "i"
// for instants). Timestamps and durations are in microseconds, as the format
// requires. Written with fmt in struct-field order — no encoding/json, no
// map iteration — so exports are byte-deterministic.
type TraceEvent struct {
	Name string  // event name, e.g. "packet" or "phase:updates"
	Cat  string  // category, e.g. "net", "phase"
	Ph   string  // phase type: "X" span, "i" instant, "s"/"f" flow start/finish
	TS   float64 // start, microseconds
	Dur  float64 // duration, microseconds (span events)
	PID  int     // process id lane (we use: node)
	TID  int     // thread id lane (we use: port or phase lane)
	ID   uint64  // flow-binding id ("s"/"f" events); 0 omits the field
	Args PacketArgs
}

// PacketArgs is the fixed argument block attached to packet-lifecycle
// events. Zero-valued fields are still emitted; a fixed shape keeps the
// output stable as instrumentation grows.
type PacketArgs struct {
	Src         int
	Dst         int
	Bytes       int
	Hops        int
	Deflections int
}

// WriteChromeTrace writes events as a Chrome trace-event JSON object
// ({"traceEvents":[...]}) loadable by Perfetto / chrome://tracing. A nil
// store writes an empty trace.
func WriteChromeTrace(w io.Writer, events *Pages[TraceEvent]) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	var b strings.Builder
	for i, n := 0, events.Len(); i < n; i++ {
		ev := events.At(i)
		b.Reset()
		fmt.Fprintf(&b,
			"{\"name\":%q,\"cat\":%q,\"ph\":%q,\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,",
			ev.Name, ev.Cat, ev.Ph, ev.TS, ev.Dur, ev.PID, ev.TID)
		if ev.ID != 0 {
			// Flow events need a binding id; emitted only when set so legacy
			// span exports stay byte-identical.
			fmt.Fprintf(&b, "\"id\":%d,\"bp\":\"e\",", ev.ID)
		}
		fmt.Fprintf(&b,
			"\"args\":{\"src\":%d,\"dst\":%d,\"bytes\":%d,\"hops\":%d,\"deflections\":%d}}",
			ev.Args.Src, ev.Args.Dst, ev.Args.Bytes, ev.Args.Hops, ev.Args.Deflections)
		if i < n-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ns\"}\n")
	return err
}
