// Command benchmark is the repository's benchmark: an end-to-end host-time
// ledger for the simulator, with a per-layer split measured from outside.
//
// The paper's results are rates in simulated time; what a user of this
// repository pays is host time to regenerate them. The benchmark runs seven
// fixed workloads, one run at a time, checks every output, and reports what
// each run cost the host. A traced pass splits that cost by layer, from CPU
// profiles of the same runs and from drivers that time each layer's public
// functions in isolation. See README.md for the metrics and how they
// interact, and ../BENCHMARK.json for the contract.
//
//	go run -C benchmark . --workload gups_dv_fast --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -seconds 10 -selfcheck      # every workload, both passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance says what produced a ledger, so numbers are only ever compared
// like for like.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Size       string  `json:"size"`
}

func newProvenance(w workload, cfg runConfig) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Size:       w.size,
	}
	// Outside a git checkout (as under the benchmark driver) the commit
	// stays unknown.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// report is what one pass writes to disk: the ledger under its provenance.
type report struct {
	Provenance provenance `json:"provenance"`
	ledger
}

func (r report) print() {
	p := r.Provenance
	pass := "timed"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("# %s (%s pass): %s\n", r.Workload, pass, p.Size)
	fmt.Printf("# commit %s, %s, GOMAXPROCS %d, nproc %d, %s, seed %d, %g s\n",
		p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, p.Seed, p.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %14.6g %-6s n=%d min=%.6g median=%.6g max=%.6g\n", n, m.Value, m.Unit, m.N, m.Min, m.Median, m.Max)
	}
	st, _ := json.Marshal(r.Stats)
	fmt.Printf("sim_stats %s\n", st)
	fmt.Printf("checks: %d attempted, %d failed\n", r.Checks.Attempted, r.Checks.Failed)
	for _, f := range r.Checks.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
}

func (r report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", r.Workload, trace)), b, 0o644)
}

// resultLine is the last line of standard output when one workload is
// asked for: the form the benchmark driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r report) line() (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer()
	}
	out := resultLine{r.Checks.Failed == 0, r.Checks.Attempted, r.Checks.Failed, map[string]resultValue{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = resultValue{m.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// onePass runs one pass over one workload, prints it and writes its ledger.
func onePass(w workload, cfg runConfig, traced bool, outDir string) (report, error) {
	run := timedPass
	if traced {
		run = tracedPass
	}
	l, err := run(w, cfg)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name, err)
	}
	r := report{newProvenance(w, cfg), l}
	r.print()
	return r, r.write(outDir)
}

// selfcheck compares two timed passes of the same code: every end-to-end
// metric must agree within its bound, and the simulated statistics exactly.
func selfcheck(a, b report) []string {
	var bad []string
	if a.Stats != b.Stats {
		bad = append(bad, fmt.Sprintf("%s: simulated statistics differ between passes", a.Workload))
	}
	for _, d := range endToEnd {
		x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		if diff := math.Abs(y-x) / x; diff > d.Bound {
			bad = append(bad, fmt.Sprintf("%s: %s differs by %.1f%% between passes (%g, %g), bound %.0f%%",
				a.Workload, d.Name, diff*100, x, y, d.Bound*100))
		}
	}
	return bad
}

func main() {
	var (
		name  = flag.String("workload", "", "run this workload only and end with the driver's JSON result line (default: every workload, both passes)")
		seed  = flag.Uint64("seed", 1, "workload seed; the pinned simulated statistics are checked for seed 1")
		secs  = flag.Float64("seconds", 10, "host seconds to measure each pass for")
		trace = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		self  = flag.Bool("selfcheck", false, "without -workload: run the timed pass twice and fail if the two disagree beyond the bounds")
		out   = flag.String("out", filepath.Join(".bench_build", "ledger"), "directory the ledgers (metrics, checks, spans) are written to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *secs <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The simulator is one simulated thread of control: exactly one process
	// goroutine runs at a time. On two Ps the Go scheduler wakes the second
	// on every handoff, and the same gups_dv_fast run took 1.25-1.96 s
	// against 1.00-1.08 s on one (README). The provenance header records it.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{seed: *seed, seconds: *secs, setups: 3, minReps: 3}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		r, err := onePass(w, cfg, *trace == 1, *out)
		if err == nil {
			var line string
			if line, err = r.line(); err == nil {
				fmt.Println(line)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if r.Checks.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	failed := 0
	for _, w := range workloads {
		passes := []bool{false, true}
		if *self {
			passes = []bool{false, false, true}
		}
		var timed []report
		for _, traced := range passes {
			r, err := onePass(w, cfg, traced, *out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			failed += r.Checks.Failed
			if !traced {
				timed = append(timed, r)
			}
			fmt.Println()
		}
		if *self {
			for _, msg := range selfcheck(timed[0], timed[1]) {
				fmt.Println("SELFCHECK FAILED:", msg)
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Printf("%d checks failed\n", failed)
		os.Exit(1)
	}
}
