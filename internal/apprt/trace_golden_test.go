package apprt_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apprt"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceRow is one configuration of the trace golden: a traced GUPS run that
// returns its trace and its critical path.
type traceRow struct {
	name string
	run  func() (*trace.Log, []attr.CritStep)
}

// traceRows lists GUPS at its reference size on InfiniBand and on both Data
// Vortex engines, a two-rail and a lossy reliable Data Vortex run, and
// Figure 5 at full size.
func traceRows(t *testing.T) []traceRow {
	a, _ := apprt.Get("gups")
	app := func(net comm.Net, set func(*apprt.RunSpec)) func() (*trace.Log, []attr.CritStep) {
		return func() (*trace.Log, []attr.CritStep) {
			spec := apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: 1}
			spec.Attr = &attr.Config{Trace: true}
			set(&spec)
			sum, err := a.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			log, err := sum.Cluster.Attr.Trace()
			if err != nil {
				t.Fatal(err)
			}
			return log, sum.Cluster.Attr.CritPath
		}
	}
	none := func(*apprt.RunSpec) {}
	return []traceRow{
		{"gups/ib", app(comm.IB, none)},
		{"gups/dv-fast", app(comm.DV, none)},
		{"gups/dv-cycle", app(comm.DV, func(s *apprt.RunSpec) { s.CycleAccurate = true })},
		{"gups/dv-2rails", app(comm.DV, func(s *apprt.RunSpec) { s.VICsPerNode = 2 })},
		{"gups/dv-reliable-drop", app(comm.DV, func(s *apprt.RunSpec) {
			s.Reliable = true
			s.WaitTimeout = 500 * sim.Microsecond
			s.Faults = &faultplan.Plan{Seed: 1, DropProb: 2e-3}
		})},
		{"fig5", func() (*trace.Log, []attr.CritStep) {
			_, log := bench.Fig5Trace(bench.Options{})
			return log, attr.CriticalPath(log)
		}},
	}
}

// TestTraceGolden pins every trace writer on every row: SHA-256 digests of
// the CSV, the Paraver .prv/.pcf/.row trio, the 96-column ASCII Gantt, the
// Chrome export and the critical-path table. Regenerate with
// go test ./internal/apprt -run TestTraceGolden -update-golden.
func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, row := range traceRows(t) {
		log, crit := row.run()
		states, msgs, span := log.Summary()
		fmt.Fprintf(&b, "%s states=%d messages=%d span=%v\n", row.name, states, msgs, span)
		var csv, prv, pcf, rowf, gantt, chrome, critb bytes.Buffer
		for _, err := range []error{
			log.WriteCSV(&csv),
			log.WriteParaver(&prv, &pcf, &rowf),
			log.RenderASCII(&gantt, trace.GanttWidth),
			log.WriteChrome(&chrome),
			attr.WriteCritPath(&critb, crit),
		} {
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		for _, out := range []struct {
			name string
			b    []byte
		}{{"csv", csv.Bytes()}, {"prv", prv.Bytes()}, {"pcf", pcf.Bytes()}, {"row", rowf.Bytes()},
			{"gantt", gantt.Bytes()}, {"chrome", chrome.Bytes()}, {"critpath", critb.Bytes()}} {
			fmt.Fprintf(&b, "%s %s sha256:%x\n", row.name, out.name, sha256.Sum256(out.b))
		}
	}
	lineGolden(t, "trace.golden", b.String(), "trace moved")
}
