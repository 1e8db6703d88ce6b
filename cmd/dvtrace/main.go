// Command dvtrace regenerates Figure 5: an Extrae-style execution trace of
// the MPI GUPS implementation, showing per-node compute intervals and the
// message pattern whose lack of destination regularity motivates the Data
// Vortex design. The trace is written as CSV (states, then messages).
//
// Usage:
//
//	dvtrace [-nodes 4] [-updates 2048] [-o gups_trace.csv]
//	dvtrace export -i gups_trace.csv -o gups.trace.json   # CSV -> Chrome/Perfetto
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apprt"
	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/trace"
)

// runExport converts a trace CSV (as written by the default mode's -o) into
// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
func runExport(in io.Reader, out io.Writer) error {
	rec, err := trace.ReadCSV(in)
	if err != nil {
		return err
	}
	return rec.WriteChrome(out)
}

func exportMain(args []string) {
	fs := flag.NewFlagSet("dvtrace export", flag.ExitOnError)
	inPath := fs.String("i", "gups_trace.csv", "input trace CSV (from a prior dvtrace run)")
	outPath := fs.String("o", "gups.trace.json", "output Chrome trace JSON ('-' for stdout)")
	fs.Parse(args)
	in, err := os.Open(*inPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvtrace export: %v\n", err)
		os.Exit(1)
	}
	defer in.Close()
	out := os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvtrace export: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := runExport(in, out); err != nil {
		fmt.Fprintf(os.Stderr, "dvtrace export: %v\n", err)
		os.Exit(1)
	}
	if *outPath != "-" {
		fmt.Printf("Chrome trace written to %s (load in Perfetto or chrome://tracing)\n", *outPath)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "export" {
		exportMain(os.Args[2:])
		return
	}
	nodes := flag.Int("nodes", 4, "cluster nodes")
	updates := flag.Int("updates", 2048, "updates per node")
	out := flag.String("o", "gups_trace.csv", "output CSV path")
	ascii := flag.Bool("ascii", true, "also render an ASCII Gantt view to stdout")
	width := flag.Int("width", 96, "ASCII view width in columns")
	netName := flag.String("net", "ib", "network stack to trace: ib (the paper's Figure 5) or dv")
	prvPath := flag.String("prv", "", "also write a Paraver trace (.prv/.pcf/.row) with this basename")
	flag.Parse()

	// Bad input is one line and exit 2, before any cluster exists.
	net, err := comm.ParseNet(*netName)
	if err == nil {
		err = apprt.RunSpec{Net: net, Nodes: *nodes}.Validate()
	}
	if err == nil && (*updates < 1 || *width < 1) {
		err = fmt.Errorf("-updates and -width must be at least 1 (%d, %d)", *updates, *width)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvtrace: %v\n", err)
		os.Exit(2)
	}

	rec := trace.New()
	par := gups.Params{
		Nodes:          *nodes,
		TableWordsNode: 1 << 12,
		UpdatesPerNode: *updates,
		Platform:       cluster.Platform{Trace: rec},
	}
	r := gups.Run(net, par)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvtrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "dvtrace: %v\n", err)
		os.Exit(1)
	}
	states, msgs, span := rec.Summary()
	fmt.Printf("GUPS on %d nodes: %.2f MUPS aggregate\n", *nodes, r.MUPS())
	fmt.Printf("trace: %d state intervals, %d messages, span %v -> %s\n",
		states, msgs, span, *out)
	if *ascii {
		if err := rec.RenderASCII(os.Stdout, *width); err != nil {
			fmt.Fprintf(os.Stderr, "dvtrace: %v\n", err)
			os.Exit(1)
		}
	}
	if *prvPath != "" {
		if err := writeParaverFiles(rec, *prvPath, *nodes); err != nil {
			fmt.Fprintf(os.Stderr, "dvtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Paraver trace written to %s.prv/.pcf/.row\n", *prvPath)
	}
}

// writeParaverFiles emits the Extrae/Paraver-compatible trio of files.
func writeParaverFiles(rec *trace.Recorder, base string, nodes int) error {
	prv, err := os.Create(base + ".prv")
	if err != nil {
		return err
	}
	defer prv.Close()
	pcf, err := os.Create(base + ".pcf")
	if err != nil {
		return err
	}
	defer pcf.Close()
	row, err := os.Create(base + ".row")
	if err != nil {
		return err
	}
	defer row.Close()
	return rec.WriteParaver(prv, pcf, row, nodes)
}
