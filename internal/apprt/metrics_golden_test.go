package apprt_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vic"
)

// metricsRow is one configuration of the metrics golden.
type metricsRow struct {
	name string
	app  apprt.App
	spec func() apprt.RunSpec
}

// metricsRows lists every registered app at its reference size on the fast
// and the cycle-accurate Data Vortex engines and on InfiniBand, then three
// 32-node cycle-accurate GUPS rows. A reference-size switch has one cylinder
// and never deflects; the 32-node switch has four, and one of those rows runs
// two planes and one loses packets under the reliable layer, so per-cylinder
// deflections, drops and retransmits are all nonzero mid-run.
func metricsRows() []metricsRow {
	with := func(nodes int, net comm.Net, set func(*apprt.RunSpec)) func() apprt.RunSpec {
		return func() apprt.RunSpec {
			spec := apprt.RunSpec{Net: net, Nodes: nodes, Seed: 1}
			spec.Obs = &obs.Config{Every: 5 * sim.Microsecond, PacketSample: 8}
			set(&spec)
			return spec
		}
	}
	var rows []metricsRow
	for _, a := range apprt.Apps() {
		rows = append(rows,
			metricsRow{a.Name + "/dv-fast", a, with(a.RefNodes, comm.DV, func(*apprt.RunSpec) {})},
			metricsRow{a.Name + "/dv-cycle", a, with(a.RefNodes, comm.DV, func(s *apprt.RunSpec) { s.CycleAccurate = true })},
			metricsRow{a.Name + "/ib", a, with(a.RefNodes, comm.IB, func(*apprt.RunSpec) {})})
	}
	gups, _ := apprt.Get("gups")
	return append(rows,
		metricsRow{"gups-32/dv-cycle", gups, with(32, comm.DV, func(s *apprt.RunSpec) { s.CycleAccurate = true })},
		metricsRow{"gups-32/dv-cycle-2planes", gups, with(32, comm.DV, func(s *apprt.RunSpec) {
			s.CycleAccurate, s.DVPlanes = true, 2
		})},
		metricsRow{"gups-32/dv-cycle-reliable-drop", gups, with(32, comm.DV, func(s *apprt.RunSpec) {
			s.CycleAccurate, s.Reliable = true, true
			s.WaitTimeout = 500 * sim.Microsecond
			s.Faults = &faultplan.Plan{Seed: 1, DropProb: 2e-3}
		})})
}

// run executes the row.
func (r metricsRow) run(t *testing.T) *cluster.Report {
	t.Helper()
	sum, err := r.app.Run(r.spec())
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	if sum.Cluster.Metrics == nil {
		t.Fatalf("%s: no metrics", r.name)
	}
	return sum.Cluster
}

// exports renders a run's three metrics exports.
func exports(t *testing.T, m *obs.Metrics) (prom, jsonl, chrome []byte) {
	t.Helper()
	var p, j, c bytes.Buffer
	for _, err := range []error{m.WritePrometheus(&p), m.WriteJSONL(&j), m.WriteChromeTrace(&c)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return p.Bytes(), j.Bytes(), c.Bytes()
}

// TestMetricsGolden pins every row's observability output: the Prometheus
// dump line by line (each line prefixed with its row, so a moved line names
// its run), and SHA-256 digests of the JSONL series (the sampler's rows:
// instrument values in the middle of the run, not only at its end) and the
// Chrome trace. Regenerate with
// go test ./internal/apprt -run TestMetricsGolden -update-golden.
func TestMetricsGolden(t *testing.T) {
	var b strings.Builder
	for _, row := range metricsRows() {
		rep := row.run(t)
		prom, jsonl, chrome := exports(t, rep.Metrics)
		for _, line := range strings.SplitAfter(string(prom), "\n") {
			if line != "" {
				fmt.Fprintf(&b, "%s %s", row.name, line)
			}
		}
		fmt.Fprintf(&b, "%s jsonl sha256:%x\n", row.name, sha256.Sum256(jsonl))
		fmt.Fprintf(&b, "%s chrome sha256:%x\n", row.name, sha256.Sum256(chrome))

		if strings.HasPrefix(row.name, "gups-32/") {
			midRunNonzero(t, row.name, rep.Metrics.Series)
		}
	}
	lineGolden(t, "metrics.golden", b.String(), "metrics moved")
}

// TestStatsViewsMatchReport holds every metric a component's Stats owns to
// the cluster.Report field it views, summed over VICs, planes and endpoints,
// on every row of the metrics golden. The switch latency histogram is read
// from the Prometheus dump, bucket by cumulative bucket; mpi_messages_total,
// which no Report field holds, must split into eager and rendezvous sends. On
// the cycle-accurate engine switch_deflected_total is the sum of the
// per-cylinder counters, which count a deflection when it happens; the
// Report's TotalDeflected is summed when a packet ejects, so the two agree
// when every packet ejects and the Report's is strictly smaller on a lossy
// run, which leaves out the deflections of dropped packets.
func TestStatsViewsMatchReport(t *testing.T) {
	for _, row := range metricsRows() {
		spec := row.spec()
		rep := row.run(t)
		prom, _, _ := exports(t, rep.Metrics)
		got := promValues(t, prom)

		var v vic.Stats
		for _, s := range rep.VICs {
			v.PktsSent += s.PktsSent
			v.PktsReceived += s.PktsReceived
			v.FIFOPkts += s.FIFOPkts
			v.FIFODropped += s.FIFODropped
			v.CorruptDropped += s.CorruptDropped
			v.Barriers += s.Barriers
		}
		rel := rep.Reliability
		want := map[string]int64{
			"vic_pkts_sent_total":       v.PktsSent,
			"vic_pkts_received_total":   v.PktsReceived,
			"vic_fifo_pkts_total":       v.FIFOPkts,
			"vic_fifo_dropped_total":    v.FIFODropped,
			"vic_corrupt_dropped_total": v.CorruptDropped,
			"vic_barriers_total":        v.Barriers,
			"rel_writes_total":          rel.Writes,
			"rel_retransmits_total":     rel.Retransmits,
			"rel_retry_rounds_total":    rel.RetryRounds,
			"rel_failures_total":        rel.Failures,
		}
		if spec.Net == comm.DV {
			f := rep.DVFabric
			want["switch_injected_total"] = f.Injected
			want["switch_delivered_total"] = f.Delivered
			want["switch_dropped_total"] = f.Dropped
			want["switch_latency_cycles_count"] = f.Delivered
			want["switch_latency_cycles_sum"] = f.TotalLatency
			want["switch_latency_cycles_bucket{le=\"+Inf\"}"] = f.Delivered
			last := len(f.LatHist) - 1
			for last >= 0 && f.LatHist[last] == 0 {
				last--
			}
			var cum int64
			for i := 0; i <= last; i++ {
				cum += f.LatHist[i]
				want[fmt.Sprintf("switch_latency_cycles_bucket{le=\"%d\"}", int64(1)<<(i+1))] = cum
			}
			want["switch_deflected_total"] = f.TotalDeflected
			if spec.CycleAccurate {
				var byCyl int64
				for name, n := range got {
					if strings.HasPrefix(name, "switch_deflected_cyl") {
						byCyl += n
					}
				}
				want["switch_deflected_total"] = byCyl
				if lossy := spec.Faults != nil; lossy && byCyl <= f.TotalDeflected || !lossy && byCyl != f.TotalDeflected {
					t.Errorf("%s: per-cylinder deflections %d against %d summed at ejection", row.name, byCyl, f.TotalDeflected)
				}
			}
		} else {
			f := rep.IBFabric
			want["ib_messages_total"] = f.Messages
			want["ib_bytes_total"] = f.Bytes
			want["ib_interleaf_total"] = f.InterLeaf
			want["ib_flaps_total"] = f.Flaps
			want["ib_flap_recoveries_total"] = f.FlapsRecovered
			want["mpi_messages_total"] = got["mpi_eager_total"] + got["mpi_rendezvous_total"]
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s: %s = %d (present %v), Report says %d", row.name, name, g, ok, w)
			}
		}
	}
}

// promValues maps each sample line of a Prometheus dump to its value.
func promValues(t *testing.T, prom []byte) map[string]int64 {
	t.Helper()
	vals := map[string]int64{}
	for _, line := range strings.Split(string(prom), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, v, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("prometheus line %q: %v", line, err)
		}
		vals[name] = n
	}
	return vals
}

// midRunNonzero requires the sampled row halfway through a 32-node run to
// show per-cylinder deflections, and on the lossy row drops and retransmits:
// what the golden's mid-run digests are there to hold.
func midRunNonzero(t *testing.T, row string, s *obs.Series) {
	t.Helper()
	mid := s.Rows[len(s.Rows)/2]
	col := func(name string) float64 {
		i := slices.Index(s.Cols, name)
		if i < 0 {
			t.Fatalf("%s: no series column %s in %v", row, name, s.Cols)
		}
		return mid.V[i]
	}
	if d := col("deflected_cyl0") + col("deflected_cyl1"); d == 0 {
		t.Errorf("%s: no per-cylinder deflections by %v", row, mid.T)
	}
	if strings.HasSuffix(row, "-drop") {
		if col("dropped_total") == 0 || col("rel_retransmits") == 0 {
			t.Errorf("%s: by %v dropped %v, retransmitted %v; want both nonzero",
				row, mid.T, col("dropped_total"), col("rel_retransmits"))
		}
	}
}
