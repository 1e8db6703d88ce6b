// Command dvbench regenerates the paper's evaluation: every figure of
// "Exploring DataVortex Systems for Irregular Applications" plus the
// extension studies listed in DESIGN.md, and runs individual registered
// workloads through the apprt harness.
//
// Usage:
//
//	dvbench                 # run everything at full size
//	dvbench -small          # fast smoke sizes
//	dvbench -list           # list experiment ids and registered apps
//	dvbench -exp fig6a      # one experiment (ids from -list)
//	dvbench -app gups       # one registered app, both backends (host cost on stderr)
//	dvbench -info           # the testbed's configuration (-app/-nodes/-planes)
//	dvbench -svg figures    # also render every plottable table as an SVG
//	dvbench -jobs 4         # fan independent sweep points over 4 workers
//	dvbench -trace out.prv  # where fig5 writes its trace (.csv .json .prv .txt)
//	dvbench -app gups -net ib -trace t.csv  # trace one -app run
//	dvbench -metrics m      # observability reference run -> m.jsonl m.prom
//	                        # m.trace.json + stage-attribution summary table
//	dvbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -app, -nodes, -net, -seed, -cycle and -planes are the run-spec flags
// dvcheck and dvprof take too (apprt.BindRunFlags). An -app run reads them
// all and -info reads -app, -nodes and -planes. The experiments, -metrics
// and -list fix their own platform, so a run-spec flag they do not read
// exits 2 naming it instead of being ignored.
//
// Long runs are crash-resumable: every simulator run of an experiment is a
// sweep point, -journal <dir> persists each finished point before moving on,
// and -resume <dir> re-runs only what is missing, producing byte-identical
// final figures. SIGINT or SIGTERM stops a journaled run cleanly (finish
// in-flight points, save, print the resume command); a second signal
// force-quits. -resume <dir> -svg DIR renders a finished journal's figures
// without recomputing them; only fig5, whose trace is a file, runs again.
// An individual -app run is bounded by -budget-wall/-budget-virtual: at the
// budget (or the first SIGINT) it stops at a clean virtual instant, prints
// "partial: cut at virtual <t>" and exits 3; to finish it, re-run without
// the budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs/attr"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runSpecReads names the run-spec flags (apprt.BindRunFlags) each mode
// reads. The experiments, -metrics and -list fix their own platform and
// read none.
var runSpecReads = map[string][]string{
	"-app":  {"app", "nodes", "net", "seed", "cycle", "planes"},
	"-info": {"app", "nodes", "planes"},
}

// modeOf names the mode a command line selects, in main's precedence.
func modeOf(list, info bool, app, metrics string) string {
	switch {
	case list:
		return "-list"
	case info:
		return "-info"
	case app != "":
		return "-app"
	case metrics != "":
		return "-metrics"
	}
	return "-exp"
}

// checkRunSpecFlags refuses a run-spec flag set on fs that mode does not
// read, which would otherwise be silently ignored. It names the first such
// flag in lexical order.
func checkRunSpecFlags(fs *flag.FlagSet, mode string) error {
	spec := flag.NewFlagSet("", flag.ContinueOnError)
	apprt.BindRunFlags(spec)
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && spec.Lookup(f.Name) != nil && !slices.Contains(runSpecReads[mode], f.Name) {
			err = fmt.Errorf("-%s: %s does not read it", f.Name, mode)
		}
	})
	return err
}

// resumeHint is the command that finishes an interrupted journaled run with
// the same outputs: the journal, the experiments it selected, and every flag
// that names where a result goes, given only when the run was given it.
func resumeHint(journal, exp string, small bool, svg, json, trace string) string {
	hint := "dvbench -resume " + journal
	if !strings.EqualFold(exp, "all") {
		hint += " -exp " + exp
	}
	if small {
		hint += " -small"
	}
	for _, f := range [][2]string{{"-svg", svg}, {"-json", json}, {"-trace", trace}} {
		if f[1] != "" {
			hint += " " + f[0] + " " + f[1]
		}
	}
	return hint
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and registered apps, then exit")
	small := flag.Bool("small", false, "use reduced problem sizes")
	exp := flag.String("exp", "all", "experiment id or 'all'")
	run := apprt.BindRunFlags(flag.CommandLine)
	info := flag.Bool("info", false,
		"print the testbed configuration for -app/-nodes/-planes (-nodes 0: the paper's 32, or -app's reference size), then exit")
	svgDir := flag.String("svg", "", "also render every plottable table as an SVG figure into this directory")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"worker count for independent sweep points (results identical at any value)")
	tracePath := flag.String("trace", "",
		"trace file fig5 writes (default gups_trace.csv), or that an -app run of one -net writes; the extension picks the format: .csv, .json (Chrome), .prv (Paraver, with .pcf and .row), .txt (ASCII Gantt)")
	metricsBase := flag.String("metrics", "",
		"run the observability reference run: write <base>.jsonl, <base>.prom and <base>.trace.json, and print the stage-attribution summary")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	journalDir := flag.String("journal", "",
		"journal every finished simulator run to this directory (crash-resumable)")
	resumeDir := flag.String("resume", "",
		"resume a journaled run from this directory (implies -journal)")
	budgetWall := flag.Duration("budget-wall", 0,
		"for -app: wall-clock budget; on expiry stop at a clean virtual instant, print a partial line and exit 3")
	budgetVirtual := flag.Duration("budget-virtual", 0,
		"for -app: virtual-time budget; same expiry behavior as -budget-wall")
	flag.Parse()

	mode := modeOf(*list, *info, run.App, *metricsBase)
	if err := checkRunSpecFlags(flag.CommandLine, mode); err != nil {
		fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
		os.Exit(2)
	}
	if *tracePath != "" {
		if err := trace.CheckPath(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: -trace: %v\n", err)
			os.Exit(2)
		}
	}
	// A budget bounds one -app run. Anything else would ignore it, so say so
	// instead of running unbounded.
	if run.App == "" && (*budgetWall != 0 || *budgetVirtual != 0) {
		fmt.Fprintln(os.Stderr,
			"dvbench: -budget-wall/-budget-virtual bound a single -app run; bound a sweep with -journal and SIGINT")
		os.Exit(2)
	}
	if budgetVirtual.Abs() > maxVirtualBudget {
		fmt.Fprintf(os.Stderr, "dvbench: -budget-virtual %v is past the simulator's virtual-time range (%v)\n",
			*budgetVirtual, maxVirtualBudget)
		os.Exit(2)
	}

	// Two-stage signal handling: the first SIGINT/SIGTERM cancels sweeps
	// (finished points are journaled, a resume hint printed) and cuts an -app
	// run at its current virtual instant; the second force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		what := "finishing in-flight work and saving state"
		if run.App != "" {
			what = "a budgeted -app run stops at its current virtual instant"
		}
		fmt.Fprintf(os.Stderr, "dvbench: interrupt — %s (signal again to force quit)\n", what)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "dvbench: force quit")
		os.Exit(130)
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			}
			f.Close()
		}()
	}

	switch mode {
	case "-list":
		fmt.Println("experiments (-exp):")
		for _, e := range bench.Experiments {
			id := e.ID
			if len(e.Aliases) > 0 {
				id += " (" + strings.Join(e.Aliases, ", ") + ")"
			}
			fmt.Printf("  %-28s %s\n", id, e.Desc)
		}
		fmt.Println("\nregistered apps (-app):")
		for _, a := range apprt.Apps() {
			fmt.Printf("  %-28s %s [ref %d nodes]\n", a.Name, a.Desc, a.RefNodes)
		}
		return
	case "-info":
		if err := printInfo(os.Stdout, run); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(2)
		}
		return
	}
	// Oversubscription warning: sweep jobs past the visible cores only add
	// preemption stalls (results stay identical either way).
	if *jobs > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr,
			"dvbench: warning: %d jobs oversubscribes %d visible CPU(s); results are identical but wall-clock scaling will not materialize\n",
			*jobs, runtime.NumCPU())
	}

	if mode == "-app" {
		// Any non-zero budget makes the run managed, so a negative one reaches
		// spec validation instead of reading as "none".
		var budget *cluster.Checkpoint
		if *budgetWall != 0 || *budgetVirtual != 0 {
			budget = &cluster.Checkpoint{
				WallBudget:    *budgetWall,
				VirtualBudget: sim.Time(budgetVirtual.Nanoseconds()) * sim.Nanosecond,
				Interrupt:     ctx.Done(),
			}
		}
		err := runApp(run, budget, *tracePath)
		var be *cluster.BudgetExceededError
		switch {
		case errors.As(err, &be):
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(3)
		case err != nil:
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(2)
		}
		return
	}
	opt := bench.Options{Small: *small, Jobs: *jobs}
	if *resumeDir != "" {
		*journalDir = *resumeDir
	}
	if *journalDir != "" {
		j, err := bench.OpenJournal(*journalDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		defer j.Close()
		opt.Journal = j
		opt.Ctx = ctx
	}
	if mode == "-metrics" {
		if err := runMetrics(opt, *metricsBase); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	traceOut := *tracePath
	if traceOut == "" {
		traceOut = "gups_trace.csv"
	}
	traced := false
	writeTrace := func(log *trace.Log) {
		if err := log.WriteFile(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		traced = true
	}

	sel, err := bench.SelectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
		os.Exit(2)
	}
	tables := runExperiments(sel, opt, writeTrace, os.Stderr)
	if err := opt.Journal.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "dvbench: journal: %v\n", err)
		os.Exit(1)
	}
	if opt.Ctx != nil && opt.Ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "dvbench: interrupted; resume with: %s\n",
			resumeHint(*journalDir, *exp, *small, *svgDir, *jsonPath, *tracePath))
		os.Exit(3)
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteAllJSON(f, tables); err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("results written to %s\n", *jsonPath)
	}
	if traced {
		fmt.Printf("fig5 trace written to %s\n", traceOut)
	}
	if *svgDir != "" {
		n, err := writeSVGs(*svgDir, tables)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%d figures rendered to %s\n", n, *svgDir)
	}
}

// runExperiments runs sel in order and returns their tables. The journal
// (opt.Journal) keeps and replays their runs point by point, and a cancelled
// opt.Ctx stops the run before the next experiment. With a non-nil wall it
// writes one line per experiment there (see bench.Walls.Line).
func runExperiments(sel []bench.Experiment, opt bench.Options, writeTrace func(*trace.Log), wall io.Writer) []*bench.Table {
	var tables []*bench.Table
	for _, e := range sel {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			break
		}
		opt.Walls = new(bench.Walls)
		start := time.Now()
		tables = append(tables, e.Run(opt, writeTrace)...)
		if wall != nil {
			fmt.Fprintln(wall, opt.Walls.Line(e.ID, time.Since(start)))
		}
	}
	return tables
}

// maxVirtualBudget is the longest -budget-virtual (a host duration: 1ms means
// 1ms of simulated time) that virtual time can express: it counts picoseconds
// in an int64, a thousandth of time.Duration's range.
const maxVirtualBudget = time.Duration(math.MaxInt64 / int64(sim.Nanosecond))

// runApp runs one registered workload through the apprt harness — on every
// backend -net selects — and prints the summaries. Each run is bounded by its
// own copy of budget when there is one. With a trace path the run (of one
// backend) is traced, and its trace written there.
func runApp(run *apprt.RunFlags, budget *cluster.Checkpoint, tracePath string) error {
	apps, err := run.Apps()
	if err != nil {
		return err
	}
	a := apps[0]
	nets, err := run.Nets()
	if err != nil {
		return err
	}
	if tracePath != "" && len(nets) != 1 {
		return errors.New("-trace traces one run: name one backend with -net dv or -net ib")
	}
	for _, net := range nets {
		spec, err := run.Spec(net, a.RefNodes)
		if err != nil {
			return err
		}
		if budget != nil {
			cp := *budget
			spec.Checkpoint = &cp
		}
		if tracePath != "" {
			spec.Attr = &attr.Config{Trace: true}
		}
		ev0, rs0, pk0, st0 := cluster.KernelCounts()
		t0 := time.Now()
		sum, err := a.Run(spec)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", a.Name, net, err)
		}
		// A cut run has no result: no node finished, and the app's check
		// string would be built from its parameters alone.
		outcome := fmt.Sprintf("elapsed=%-12v errors=%d  %s", sum.Elapsed, sum.Errors, sum.Check)
		var cut *cluster.BudgetExceededError
		if cp := spec.Checkpoint; cp != nil && errors.As(cp.Err, &cut) {
			outcome = fmt.Sprintf("partial: cut at virtual %v", cut.At)
		}
		fmt.Printf("%-10s %-12s %2d nodes  %s\n", sum.App, sum.Net, sum.Nodes, outcome)
		// What the run cost the host goes to stderr: stdout is simulated
		// results only and stays byte-identical from run to run.
		ev1, rs1, pk1, st1 := cluster.KernelCounts()
		fmt.Fprintf(os.Stderr, "  host: wall=%v  events=%d  resumes=%d  peak_pending=%d  stream=%016x\n",
			wall.Round(time.Millisecond), ev1-ev0, rs1-rs0, pk1-pk0, st1-st0)
		if tracePath != "" {
			log, err := sum.Cluster.Attr.Trace()
			if err == nil {
				err = log.WriteFile(tracePath)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace written to %s\n", tracePath)
		}
		if cut != nil {
			return cut
		}
	}
	return nil
}

// SVG figure size in pixels.
const svgWidth, svgHeight = 720, 440

// writeSVGs renders every plottable table into dir as <id>.svg and returns
// how many it wrote.
func writeSVGs(dir string, tables []*bench.Table) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, t := range tables {
		c, ok := plot.FromTable(t)
		if !ok {
			continue
		}
		f, err := os.Create(filepath.Join(dir, t.ID+".svg"))
		if err != nil {
			return n, err
		}
		err = c.RenderSVG(f, svgWidth, svgHeight)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// runMetrics executes the observability reference run and writes its three
// exports next to each other: <base>.jsonl (time series), <base>.prom
// (Prometheus text dump), <base>.trace.json (Chrome/Perfetto trace). The
// run also traces every flow through the attribution layer, and the stage
// and per-node latency-decomposition tables print after the summary table.
func runMetrics(opt bench.Options, base string) error {
	paths := []string{base + ".jsonl", base + ".prom", base + ".trace.json"}
	files := make([]*os.File, len(paths))
	for i, p := range paths {
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		files[i] = f
	}
	tab, attrSum, err := bench.Metrics(opt, files[0], files[1], files[2])
	if err != nil {
		return err
	}
	tab.Fprint(os.Stdout)
	fmt.Println()
	if err := bench.WriteAttrSummary(os.Stdout, attrSum); err != nil {
		return err
	}
	fmt.Printf("metrics written to %s, %s, %s\n", paths[0], paths[1], paths[2])
	return nil
}
