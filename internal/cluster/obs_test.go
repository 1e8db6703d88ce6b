package cluster

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vic"
)

// metricsRun is a fixed-seed cycle-accurate DV run with enough injected loss
// that the reliable layer retransmits, with every packet lifecycle sampled.
func metricsRun(t *testing.T) *Report {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.CycleAccurate = true
	cfg.Seed = 3
	cfg.Faults = &faultplan.Plan{Seed: 7, DropProb: 5e-3}
	cfg.Obs = &obs.Config{Every: 2 * sim.Microsecond, PacketSample: 1, Seed: 11}
	return Run(cfg, func(n *Node) {
		vals := make([]uint64, 64)
		for i := range vals {
			vals[i] = uint64(n.ID)<<32 | uint64(i)
		}
		if err := n.DV.ReliableWrite((n.ID+1)%4, 100, vals); err != nil {
			t.Errorf("node %d: %v", n.ID, err)
		}
		if err := n.DV.ReliableBarrier(); err != nil {
			t.Errorf("node %d barrier: %v", n.ID, err)
		}
	})
}

// TestMetricsMatchReport holds the sampled series and the Chrome trace to the
// Report; that every Stats-backed registry name equals the Report field it
// views is TestStatsViewsMatchReport's, over every app in internal/apprt.
func TestMetricsMatchReport(t *testing.T) {
	rep := metricsRun(t)
	m := rep.Metrics
	if m == nil || m.Registry == nil || m.Series == nil {
		t.Fatal("metrics missing from report")
	}
	if rep.Reliability.Retransmits == 0 {
		t.Fatal("test run produced no retransmits; raise DropProb")
	}
	// The series' final row carries the same cumulative totals.
	last := m.Series.Rows[len(m.Series.Rows)-1].V
	for col, want := range map[string]int64{
		"rel_retransmits": rep.Reliability.Retransmits,
		"delivered_total": rep.DVFabric.Delivered,
	} {
		if i := slices.Index(m.Series.Cols, col); i < 0 || last[i] != float64(want) {
			t.Errorf("series has no final %s = %d (columns %v, last row %v)", col, want, m.Series.Cols, last)
		}
	}
	// With PacketSample=1 every delivery appears in the Chrome events.
	packets := 0
	for i := 0; i < m.Packets.Len(); i++ {
		if m.Packets.At(i).Cat == "net" {
			packets++
		}
	}
	if int64(packets) != rep.DVFabric.Delivered {
		t.Errorf("trace has %d packet events, %d deliveries", packets, rep.DVFabric.Delivered)
	}
}

func TestMetricsDeterministic(t *testing.T) {
	dump := func() (string, string, string) {
		rep := metricsRun(t)
		var j, p, c strings.Builder
		if err := rep.Metrics.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.Metrics.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		if err := rep.Metrics.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), p.String(), c.String()
	}
	j1, p1, c1 := dump()
	j2, p2, c2 := dump()
	if j1 != j2 {
		t.Error("JSONL export not byte-deterministic")
	}
	if p1 != p2 {
		t.Error("Prometheus export not byte-deterministic")
	}
	if c1 != c2 {
		t.Error("Chrome export not byte-deterministic")
	}
	if len(j1) == 0 || len(p1) == 0 || len(c1) == 0 {
		t.Fatal("an export is empty")
	}
}

func TestMetricsDisabledIsNil(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Stacks = StackDV
	rep := Run(cfg, func(n *Node) {
		if n.ID == 0 {
			n.DV.Put(vic.DMACached, 1, 10, vic.NoGC, []uint64{1})
		}
		n.DV.Barrier()
	})
	if rep.Metrics != nil {
		t.Fatal("metrics should be nil when Config.Obs is unset")
	}
}

func TestMetricsObsDoesNotChangeResults(t *testing.T) {
	run := func(withObs bool) *Report {
		cfg := DefaultConfig(4)
		cfg.Stacks = StackDV
		cfg.CycleAccurate = true
		if withObs {
			cfg.Obs = &obs.Config{PacketSample: 4, Seed: 5}
		}
		return Run(cfg, func(n *Node) {
			vals := []uint64{uint64(n.ID), uint64(n.ID) + 1}
			n.DV.Put(vic.DMACached, (n.ID+1)%4, 200, vic.NoGC, vals)
			n.DV.Barrier()
		})
	}
	a, b := run(false), run(true)
	if a.Elapsed != b.Elapsed {
		t.Errorf("observability changed elapsed time: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.DVFabric != b.DVFabric {
		t.Errorf("observability changed fabric stats:\n%+v\n%+v", a.DVFabric, b.DVFabric)
	}
}
