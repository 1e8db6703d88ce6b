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
// 1-in-8 packet-lifecycle sampling). Every export derived from it is
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
				Seed:         9,
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
	t.AddRow("updates", fmt.Sprintf("%d", r.Updates))
	t.AddRow("elapsed", rep.Elapsed.String())
	for _, c := range []string{"injected", "delivered", "deflected", "dropped"} {
		t.AddRow("switch_"+c,
			fmt.Sprintf("%d", m.Registry.CounterValue("switch_"+c+"_total")))
	}
	t.AddRow("rel_retransmits",
		fmt.Sprintf("%d", m.Registry.CounterValue("rel_retransmits_total")))
	t.AddRow("rel_retry_rounds",
		fmt.Sprintf("%d", m.Registry.CounterValue("rel_retry_rounds_total")))
	t.AddRow("series_rows", fmt.Sprintf("%d", len(m.Series.Rows)))
	t.AddRow("trace_events", fmt.Sprintf("%d", m.Packets.Len()))
	if a := rep.Attr; a != nil {
		t.AddRow("attr_flows", fmt.Sprintf("%d", a.Begun))
		t.AddRow("attr_completed", fmt.Sprintf("%d", a.Completed))
		t.AddRow("attr_lost", fmt.Sprintf("%d", a.Lost))
		t.AddRow("attr_retransmit_epochs", fmt.Sprintf("%d", a.RetransmitEpochs))
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
