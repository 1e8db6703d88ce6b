package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/vic"
)

// metricsRun is a fixed-seed cycle-accurate DV run with enough injected loss
// that the reliable layer retransmits, with every delivered packet a Chrome
// packet span.
func metricsRun(t *testing.T) *Report {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Stacks = StackDV
	cfg.CycleAccurate = true
	cfg.Seed = 3
	cfg.Faults = &faultplan.Plan{Seed: 7, DropProb: 5e-3}
	cfg.Obs = &obs.Config{Every: 2 * sim.Microsecond, PacketSample: 1}
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
			cfg.Obs = &obs.Config{PacketSample: 4}
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

// packetWorkload sends every node a DMA burst from its left neighbour and a
// PIO burst from across the machine: enough packets on each port that they
// wait to enter the switch, which is what a packet span has to cover.
func packetWorkload(n *Node) {
	size := n.DV.Size()
	buf := n.DV.Alloc(96)
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(n.ID)<<32 | uint64(i)
	}
	n.DV.Barrier()
	n.DV.Put(vic.DMACached, (n.ID+1)%size, buf, vic.NoGC, vals)
	n.DV.Put(vic.PIO, (n.ID+size/2)%size, buf+64, vic.NoGC, vals[:32])
	n.DV.Barrier()
}

// flowKey is what a packet span shares with its flow besides the delivery:
// ports, fabric telemetry, and the hand-off to the switch in microseconds.
type flowKey struct {
	src, dst, hops, defl int
	ts                   float64
}

// flowEnds rebuilds each completed flow's key and delivery time (µs) from
// the events ChromeEvents writes for it: its stage spans, then its "s"/"f"
// pair. It returns the deliveries by key and the number of flows.
func flowEnds(t *testing.T, evs []obs.TraceEvent) (map[flowKey][]float64, int) {
	t.Helper()
	ends := map[flowKey][]float64{}
	flows := 0
	var k flowKey
	var end float64
	var started, fabric bool
	for _, ev := range evs {
		switch {
		case ev.Ph == "X" && ev.TID == int(attr.StageInjectWait):
			k.ts, started = ev.TS, true
		case ev.Ph == "X" && ev.TID == int(attr.StageFabric):
			if !started {
				k.ts = ev.TS
			}
			end, fabric = ev.TS+ev.Dur, true
			k.src, k.dst, k.hops, k.defl = ev.Args.Src, ev.Args.Dst, ev.Args.Hops, ev.Args.Deflections
		case ev.Ph == "f":
			if !fabric {
				t.Fatalf("flow %d completed without a fabric stage", ev.ID)
			}
			ends[k] = append(ends[k], end)
			flows++
			k, started, fabric = flowKey{}, false, false
		}
	}
	return ends, flows
}

// TestChromePacketsProjectAttrFlows holds the Chrome "packet" spans to the
// run's flows on both engines and on two planes: each span is one flow the
// fabric delivered, from its hand-off to the switch to its delivery (the
// inject-wait and fabric stages) with the flow's ports, hops and deflections;
// a rerun and a run without attribution select the same flows; about 1 in
// PacketSample is kept; and the stage spans of Attr.Chrome follow them.
func TestChromePacketsProjectAttrFlows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cycle  bool
		planes int
	}{
		{"fast", false, 1},
		{"cycle", true, 1},
		{"cycle-2planes", true, 2},
	} {
		run := func(sample uint64, withAttr bool) ([]obs.TraceEvent, *Report) {
			cfg := DefaultConfig(16)
			cfg.Stacks = StackDV
			cfg.CycleAccurate = tc.cycle
			cfg.DVPlanes = tc.planes
			cfg.Obs = &obs.Config{PacketSample: sample}
			if withAttr {
				cfg.Attr = &attr.Config{Sample: 1, Chrome: true}
			}
			rep := Run(cfg, packetWorkload)
			evs := make([]obs.TraceEvent, rep.Metrics.Packets.Len())
			for i := range evs {
				evs[i] = *rep.Metrics.Packets.At(i)
			}
			return evs, rep
		}
		t.Run(tc.name, func(t *testing.T) {
			var delivered int
			for _, sample := range []uint64{1, 4} {
				evs, rep := run(sample, true)
				n := 0
				for n < len(evs) && evs[n].Cat == "net" {
					n++
				}
				packets, rest := evs[:n], evs[n:]
				for _, ev := range rest {
					if !strings.HasPrefix(ev.Cat, "attr") {
						t.Fatalf("sample %d: event %+v after the stage spans began", sample, ev)
					}
				}
				ends, flows := flowEnds(t, rest)
				if int64(flows) != rep.DVFabric.Delivered {
					t.Fatalf("sample %d: %d completed flows, %d deliveries", sample, flows, rep.DVFabric.Delivered)
				}
				var waited, deflected int
				for _, ev := range packets {
					k := flowKey{src: ev.Args.Src, dst: ev.Args.Dst, hops: ev.Args.Hops, defl: ev.Args.Deflections, ts: ev.TS}
					if ev.Name != "packet" || ev.Ph != "X" || ev.PID != ev.Args.Dst || ev.TID != ev.Args.Src || ev.Args.Bytes != dvswitch.WireBytes {
						t.Fatalf("sample %d: packet event %+v out of shape", sample, ev)
					}
					// A delivery matches within a tenth of a picosecond: the
					// two sides sum the same times in a different order.
					i := slices.IndexFunc(ends[k], func(end float64) bool { return math.Abs(end-(ev.TS+ev.Dur)) < 1e-7 })
					if i < 0 {
						t.Fatalf("sample %d: packet %+v matches no flow's inject-wait and fabric stages", sample, ev)
					}
					ends[k] = slices.Delete(ends[k], i, i+1)
					if ev.Dur > float64(sim.Time(ev.Args.Hops+1)*dvswitch.DefaultCycleTime)/float64(sim.Microsecond) {
						waited++
					}
					if ev.Args.Deflections > 0 {
						deflected++
					}
				}
				switch sample {
				case 1:
					delivered = flows
					if waited == 0 || deflected == 0 {
						t.Errorf("%d packets waited to enter the switch and %d deflected; the workload must make both happen", waited, deflected)
					}
					if len(packets) != delivered {
						t.Errorf("sample 1: %d packet spans, %d delivered flows", len(packets), delivered)
					}
				default:
					if lo, hi := delivered*3/(4*int(sample)), delivered*5/(4*int(sample)); len(packets) < lo || len(packets) > hi {
						t.Errorf("sample %d: kept %d of %d flows, want %d to %d", sample, len(packets), delivered, lo, hi)
					}
				}
				again, _ := run(sample, true)
				if !slices.Equal(evs, again) {
					t.Errorf("sample %d: a rerun wrote different events", sample)
				}
				alone, plain := run(sample, false)
				if plain.Attr != nil {
					t.Errorf("sample %d: a run without Attr reported an attribution summary", sample)
				}
				if !slices.Equal(packets, alone) {
					t.Errorf("sample %d: without Attr the run kept %d packet spans, with it %d, or different ones", sample, len(alone), len(packets))
				}
			}
		})
	}
}
