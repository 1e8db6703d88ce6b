package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// MetricsRun executes the observability reference run: a fixed-seed GUPS
// workload on the cycle-accurate Data Vortex fabric through the reliable
// layer, with enough injected packet loss that retransmissions occur, and the
// unified metrics layer enabled (instrument registry, time-series sampler,
// 1-in-8 of its flows as Chrome packet spans). Every export derived from it is
// byte-deterministic, which is what lets CI pin golden output.
func MetricsRun(opt Options) gups.Result {
	par := gups.Params{
		Nodes:          4,
		TableWordsNode: 1 << 12,
		UpdatesPerNode: 1 << 11,
		Seed:           12,
		Reliable:       true,
		Platform: cluster.Platform{
			CycleAccurate: true,
			Faults:        &faultplan.Plan{Seed: 7, DropProb: 2e-3},
			Obs: &obs.Config{
				Every:        5 * sim.Microsecond,
				PacketSample: 8,
			},
			// Full flow attribution: with loss and retransmissions in the plan,
			// the summary exercises lost flows and retransmit epochs too.
			Attr: &attr.Config{Sample: 1},
		},
	}
	if opt.Small {
		par.UpdatesPerNode = 1 << 9
	}
	return gups.Run(comm.DV, par)
}

// Metrics runs MetricsRun and writes its three exports — JSONL time series,
// Prometheus text dump, Chrome trace JSON — to the given writers (any may be
// nil to skip). The returned table summarises the run from the metrics
// registry itself, so a discrepancy between instruments and the run report
// shows up as a wrong table; the attribution summary is returned alongside
// for the driver's stage-breakdown output.
func Metrics(opt Options, jsonl, prom, chrome io.Writer) (*Table, *attr.Summary, error) {
	r := MetricsRun(opt)
	m := r.Report.Metrics
	if m == nil {
		return nil, nil, fmt.Errorf("bench: metrics run produced no metrics")
	}
	if jsonl != nil {
		if err := m.WriteJSONL(jsonl); err != nil {
			return nil, nil, err
		}
	}
	if prom != nil {
		if err := m.WritePrometheus(prom); err != nil {
			return nil, nil, err
		}
	}
	if chrome != nil {
		if err := m.WriteChromeTrace(chrome); err != nil {
			return nil, nil, err
		}
	}
	t := &Table{
		ID:      "metrics",
		Title:   "observability reference run (fixed-seed GUPS, reliable DV, 0.2% drop)",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"registry totals match cluster.Report exactly; exports are byte-deterministic",
		},
	}
	rep := r.Report
	t.AddRow(Text("updates"), Int(r.Updates))
	t.AddRow(Text("elapsed"), Dur(rep.Elapsed))
	for _, c := range []string{"switch_injected", "switch_delivered", "switch_deflected", "switch_dropped",
		"rel_retransmits", "rel_retry_rounds"} {
		t.AddRow(Text(c), Int(m.Registry.CounterValue(c+"_total")))
	}
	t.AddRow(Text("series_rows"), Int(len(m.Series.Rows)))
	t.AddRow(Text("trace_events"), Int(m.Packets.Len()))
	if a := rep.Attr; a != nil {
		t.AddRow(Text("attr_flows"), Int(a.Begun))
		t.AddRow(Text("attr_completed"), Int(a.Completed))
		t.AddRow(Text("attr_lost"), Int(a.Lost))
		t.AddRow(Text("attr_retransmit_epochs"), Int(a.RetransmitEpochs))
	}
	return t, rep.Attr, nil
}

// WriteAttrSummary re-runs nothing: it renders the attribution summary of a
// finished metrics run (stage, kind, and per-node tables) for the -metrics
// driver output. A nil summary prints the disabled marker.
func WriteAttrSummary(w io.Writer, a *attr.Summary) error {
	if err := a.WriteTable(w); err != nil {
		return err
	}
	return a.WriteNodeTable(w)
}
