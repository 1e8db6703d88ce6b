// Command dvprof is the latency-attribution profiler: it runs a registered
// workload with causal flow tracing enabled and reports where every
// microsecond of end-to-end packet latency went — per pipeline stage (host
// TX, SRAM, inject wait, fabric, eject, drain), per source node, per
// operation kind — plus the run's critical path, the top-K slowest flows,
// and (cycle-accurate runs) the cylinder×angle deflection congestion map.
// Stage sums provably equal end-to-end latency (the run executes under the
// invariant layer), and all output is byte-deterministic for a fixed
// configuration, so profiles diff cleanly across code or parameter changes.
//
// Usage:
//
//	dvprof -list
//	dvprof -app NAME -net dv|ib [-nodes N] [-seed S] [-cycle] [-planes P]
//	       [-sample N] [-topk K] [-json] [-heatmap heat.svg]
//	       [-trace flows.trace.json]
//
// The run-spec flags are the ones dvbench and dvcheck take
// (apprt.BindRunFlags). A profile is one run, so -app and -net each name
// exactly one.
//
// Examples:
//
//	dvprof -app gups -net dv                         # stage breakdown, slowest flows
//	dvprof -app gups -net dv -cycle -heatmap h.svg   # + deflection heatmap (SVG)
//	dvprof -app sort -net ib                         # MPI baseline attribution
//	dvprof -app gups -net dv -trace flows.json       # Chrome/Perfetto flow trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/plot"
	"repro/internal/sim"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvprof: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports bad input: one line and exit 2, as the other drivers do.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvprof: "+format+"\n", args...)
	os.Exit(2)
}

func listApps(w io.Writer) {
	apps := apprt.Apps()
	sort.Slice(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
	fmt.Fprintf(w, "%-10s %-8s %s\n", "app", "nodes", "description")
	for _, a := range apps {
		fmt.Fprintf(w, "%-10s %-8d %s\n", a.Name, a.RefNodes, a.Desc)
	}
}

func main() {
	run := apprt.BindRunFlags(flag.CommandLine)
	var (
		list    = flag.Bool("list", false, "list registered workloads and exit")
		sample  = flag.Uint64("sample", 1, "trace 1-in-N flows (1 = every flow)")
		topK    = flag.Int("topk", 16, "slowest-flow drill-down depth")
		jsonOut = flag.Bool("json", false, "emit the attribution summary as JSON instead of tables")
		heatSVG = flag.String("heatmap", "", "write the cylinder-x-angle deflection heatmap SVG here (needs -cycle)")
		trOut   = flag.String("trace", "", "write a Chrome/Perfetto trace with per-flow spans and flow-binding events here")
	)
	flag.Parse()
	if *list {
		listApps(os.Stdout)
		return
	}
	if run.App == "" {
		usage("name the app to profile with -app (try -list)")
	}
	apps, err := run.Apps()
	if err != nil {
		usage("%v", err)
	}
	nets, err := run.Nets()
	if err != nil {
		usage("%v", err)
	}
	if len(nets) != 1 {
		usage("a profile is one run: name one backend with -net dv or -net ib")
	}
	if *topK < 0 {
		usage("-topk must not be negative (%d)", *topK)
	}
	if *heatSVG != "" && !run.Cycle {
		usage("-heatmap needs the cycle-accurate core (-cycle): the fast model has no per-node deflection census")
	}

	app, net := apps[0], nets[0]
	spec, err := run.Spec(net, app.RefNodes)
	if err != nil {
		usage("%v", err)
	}
	spec.Check = check.All()
	// The critical path is walked over the execution trace, which needs
	// every flow.
	spec.Attr = &attr.Config{Sample: *sample, TopK: *topK, Chrome: *trOut != "", Trace: *sample <= 1}
	if *trOut != "" {
		// Flow spans ride the Metrics packet exporter.
		spec.Obs = &obs.Config{Every: 100 * sim.Microsecond}
	}
	sum, err := app.Run(spec)
	if err != nil {
		// A registered runner returns an error only for a spec it cannot
		// run (fft over 3 nodes); a run that starts does not fail this way.
		usage("%v", err)
	}
	rep := sum.Cluster
	if rep.Checks != nil {
		if err := rep.Checks.Err(); err != nil {
			fail("attribution invariant violated: %v", err)
		}
	}
	a := rep.Attr
	if a == nil {
		fail("run produced no attribution summary")
	}

	if *jsonOut {
		b, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(b)
		fmt.Println()
	} else {
		fmt.Printf("%s on %s, %d nodes, seed %d: elapsed %.3f us\n\n",
			app.Name, net, spec.Nodes, spec.Seed, float64(sum.Elapsed)/float64(sim.Microsecond))
		if err := a.WriteTable(os.Stdout); err != nil {
			fail("%v", err)
		}
		fmt.Println()
		if err := a.WriteNodeTable(os.Stdout); err != nil {
			fail("%v", err)
		}
		fmt.Println()
		if err := a.WriteSlowest(os.Stdout); err != nil {
			fail("%v", err)
		}
		fmt.Println()
		if spec.Attr.Trace {
			if err := attr.WriteCritPath(os.Stdout, a.CritPath); err != nil {
				fail("%v", err)
			}
		} else {
			fmt.Println("critical path: needs -sample 1 (it is walked over every flow)")
		}
		if a.Heat != nil {
			fmt.Println()
			if err := a.WriteHeat(os.Stdout); err != nil {
				fail("%v", err)
			}
		}
	}

	if *heatSVG != "" {
		if a.Heat == nil {
			fail("no heatmap data (fabric idle?)")
		}
		if err := writeHeatSVG(*heatSVG, app.Name, a.Heat); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "dvprof: heatmap written to %s\n", *heatSVG)
	}
	if *trOut != "" {
		if err := writeChrome(*trOut, rep); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "dvprof: Chrome trace written to %s (load in Perfetto or chrome://tracing)\n", *trOut)
	}
}

// writeHeatSVG renders the deflection census as an SVG heatmap.
func writeHeatSVG(path, appName string, h *attr.Heat) error {
	hm := plot.Heatmap{
		Title:  fmt.Sprintf("Deflection congestion: %s (cylinder x angle)", appName),
		XLabel: "angle",
		YLabel: "cylinder",
		Rows:   h.Cylinders,
		Cols:   h.Angles,
		Cells:  make([]float64, len(h.Cells)),
	}
	for i, v := range h.Cells {
		hm.Cells[i] = float64(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return hm.RenderSVG(f, 900, 120+40*h.Cylinders)
}

// writeChrome exports the run's Metrics packets — which include the per-flow
// stage spans and s/f flow-binding pairs when Attr.Chrome is on — as Chrome
// trace-event JSON.
func writeChrome(path string, rep *cluster.Report) error {
	if rep.Metrics == nil {
		return fmt.Errorf("no metrics collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.Metrics.WriteChromeTrace(f)
}
