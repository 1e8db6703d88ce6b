// Benchmark baseline tooling: -bench-json turns `go test -bench` text (on
// stdin) into the committed BENCH_<area>.json format, and -bench-gate
// compares fresh benchmark text against one or more committed baselines,
// failing on a statistically significant slowdown. The significance test is
// a native exact Mann-Whitney U (permutation form, so ties are handled
// correctly) — the repo's CI cannot install benchstat, and for the sample
// counts involved (count=6) the exact test is both cheaper and stricter
// than the normal approximation.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchSample is one `go test -bench` result line, parsed.
type benchSample struct {
	ns     float64
	bytes  float64
	allocs float64
}

// benchMeta captures the goos/goarch/cpu header lines of a benchmark run.
type benchMeta struct {
	goos, goarch, cpu string
}

// benchSummary is the per-benchmark mean block of a BENCH_<area>.json file.
type benchSummary struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchFile is the committed baseline format. Cores records how many CPUs
// were visible when the baseline was taken, so parallel-scaling benchmarks
// (SweepParallel/jobsN) can be read honestly: on a 1-core host jobs4 cannot
// beat jobs1, and the emitter warns when that situation is being recorded.
type benchFile struct {
	Note    string                  `json:"note"`
	Goos    string                  `json:"goos"`
	Goarch  string                  `json:"goarch"`
	CPU     string                  `json:"cpu"`
	Cores   int                     `json:"cores"`
	Count   int                     `json:"count"`
	Summary map[string]benchSummary `json:"summary"`
	Raw     []string                `json:"raw"`
}

// gomaxprocsSuffix strips the -N GOMAXPROCS suffix go test appends on
// multi-core hosts, so names match across hosts with different core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// widthName matches any .../jobsN or .../workersN benchmark: rows whose
// ns/op measures N-way parallel execution and is therefore meaningless —
// pure scheduler and barrier noise — on a host with fewer than N CPUs.
var widthName = regexp.MustCompile(`/(?:jobs|workers)(\d+)$`)

// widthOf returns the parallel width a benchmark name encodes, 0 if none.
func widthOf(name string) int {
	m := widthName.FindStringSubmatch(name)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// parseBenchText reads `go test -bench` output: benchmark result lines
// become samples keyed by normalized name (input order preserved in names),
// and the goos/goarch/cpu header lines fill meta. Raw returns every line
// that belongs in a baseline's "raw" array, verbatim.
func parseBenchText(r io.Reader) (samples map[string][]benchSample, names []string, meta benchMeta, raw []string, err error) {
	samples = make(map[string][]benchSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			meta.goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			raw = append(raw, line)
			continue
		case strings.HasPrefix(line, "goarch:"):
			meta.goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			raw = append(raw, line)
			continue
		case strings.HasPrefix(line, "cpu:"):
			meta.cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			raw = append(raw, line)
			continue
		case strings.HasPrefix(line, "pkg:"):
			raw = append(raw, line)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			continue // PASS/FAIL banners and malformed lines
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		var s benchSample
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, perr := strconv.ParseFloat(f[i], 64)
			if perr != nil {
				return nil, nil, meta, nil, fmt.Errorf("bad value in %q: %v", line, perr)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns, ok = v, true
			case "B/op":
				s.bytes = v
			case "allocs/op":
				s.allocs = v
			}
		}
		if !ok {
			continue
		}
		if _, seen := samples[name]; !seen {
			names = append(names, name)
		}
		samples[name] = append(samples[name], s)
		raw = append(raw, line)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, meta, nil, err
	}
	return samples, names, meta, raw, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func meanOf(xs []benchSample) benchSummary {
	var s benchSummary
	for _, x := range xs {
		s.NsPerOp += x.ns
		s.BytesPerOp += x.bytes
		s.AllocsPerOp += x.allocs
	}
	n := float64(len(xs))
	return benchSummary{round2(s.NsPerOp / n), round2(s.BytesPerOp / n), round2(s.AllocsPerOp / n)}
}

// emitBenchJSON reads benchmark text from r and writes the committed
// BENCH_<area>.json format to path. It records the visible core count and
// warns when a SweepParallel/jobsN benchmark ran with fewer than N cores —
// the recorded scaling numbers would otherwise silently misrepresent the
// runner (the note drift that motivated the cores field).
func emitBenchJSON(r io.Reader, path, note string) error {
	samples, names, meta, raw, err := parseBenchText(r)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark result lines on input")
	}
	cores := runtime.NumCPU()
	count := 0
	out := benchFile{
		Note: note, Goos: meta.goos, Goarch: meta.goarch, CPU: meta.cpu,
		Cores: cores, Summary: make(map[string]benchSummary), Raw: raw,
	}
	for _, name := range names {
		xs := samples[name]
		if len(xs) > count {
			count = len(xs)
		}
		out.Summary[name] = meanOf(xs)
		if w := widthOf(name); w > cores {
			fmt.Fprintf(os.Stderr,
				"dvbench: warning: %s ran with %d visible CPUs — recorded scaling for %d workers is serialized, not parallel\n",
				name, cores, w)
		}
	}
	out.Count = count
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// maxExactAssignments bounds the exact permutation enumeration: C(n+m, n)
// assignments each cost O((n+m)^2), so the CI shape (6 fresh samples vs an
// 18-sample baseline, C(24,6) = 134596) stays exact while pathological
// shapes (18 vs 18 is C(36,18) ~ 9e9 — hours of spin) fall back to the
// tie-corrected normal approximation below.
const maxExactAssignments = 1 << 20

// mannWhitneyP returns the two-sided p-value of the Mann-Whitney U test:
// exact (permutation form over the pooled samples, so ties need no special
// correction — the probability, under the null of exchangeability, of a U
// statistic at least as far from n*m/2 as the observed one) whenever the
// enumeration is affordable, else the tie-corrected normal approximation
// with continuity correction (benchstat's large-sample discipline).
func mannWhitneyP(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 1
	}
	if comb := binomialFloat(n+m, n); comb > maxExactAssignments {
		return mannWhitneyNormalP(a, b)
	}
	pool := append(append([]float64(nil), a...), b...)
	uOf := func(idxA []int) float64 {
		inA := make([]bool, len(pool))
		for _, i := range idxA {
			inA[i] = true
		}
		var u float64
		for i := range pool {
			if !inA[i] {
				continue
			}
			for j := range pool {
				if inA[j] {
					continue
				}
				switch {
				case pool[i] > pool[j]:
					u += 1
				case pool[i] == pool[j]:
					u += 0.5
				}
			}
		}
		return u
	}
	obsIdx := make([]int, n)
	for i := range obsIdx {
		obsIdx[i] = i
	}
	center := float64(n*m) / 2
	obsDev := math.Abs(uOf(obsIdx) - center)

	// Enumerate every way to assign n of the pooled samples to group A.
	var total, extreme int
	idx := make([]int, n)
	var rec func(pos, next int)
	rec = func(pos, next int) {
		if pos == n {
			total++
			if math.Abs(uOf(idx)-center) >= obsDev-1e-12 {
				extreme++
			}
			return
		}
		for i := next; i <= len(pool)-(n-pos); i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return float64(extreme) / float64(total)
}

// binomialFloat computes C(n, k) in floating point, saturating instead of
// overflowing — callers only compare it against a small threshold.
func binomialFloat(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 1; i <= k; i++ {
		c *= float64(n - k + i)
		c /= float64(i)
		if c > 1e18 {
			return 1e18
		}
	}
	return c
}

// mannWhitneyNormalP is the large-sample two-sided p-value: U is compared
// against a normal with mean n*m/2 and the tie-corrected variance, with a
// 0.5 continuity correction.
func mannWhitneyNormalP(a, b []float64) float64 {
	n, m := len(a), len(b)
	var u float64
	for _, x := range a {
		for _, y := range b {
			switch {
			case x > y:
				u += 1
			case x == y:
				u += 0.5
			}
		}
	}
	// Tie correction sums t^3 - t over groups of equal pooled values.
	pool := append(append([]float64(nil), a...), b...)
	sort.Float64s(pool)
	N := n + m
	var tieSum float64
	for i := 0; i < N; {
		j := i
		for j < N && pool[j] == pool[i] {
			j++
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	variance := float64(n) * float64(m) / 12 *
		(float64(N+1) - tieSum/(float64(N)*float64(N-1)))
	if variance <= 0 {
		return 1 // every pooled value identical: no evidence of a shift
	}
	dev := math.Abs(u-float64(n*m)/2) - 0.5
	if dev < 0 {
		dev = 0
	}
	z := dev / math.Sqrt(variance)
	return math.Erfc(z / math.Sqrt2)
}

// gateResult is one benchmark's verdict in a gate run.
type gateResult struct {
	name               string
	oldNs, newNs       float64 // means
	p                  float64
	oldAllocs          float64
	newAllocs          float64
	regressed          bool
	reason             string
	improved, untested bool
	skipped            string // non-empty: ns/op not gated, and why
}

// gateAgainst compares new samples to baseline samples for every benchmark
// present in both, using the exact Mann-Whitney U test on ns/op at the
// given alpha. Alloc counts are deterministic in the code under test, so a
// mean allocs/op higher by one or more is a regression outright, no
// statistics needed. Less than one is not: go test truncates allocs/op to an
// integer, and the runtime's own GC-paced allocations (sync.Pool refills
// after each cycle) put a whole-run benchmark a fraction of an alloc either
// side of the boundary from sample to sample (AppGUPS: 7138 and 7139 in one
// session). cores is the
// effective CPU budget (the smaller of the baseline's recorded cores and
// the current host's): /jobsN and /workersN rows wider than it measure
// serialized scheduler noise, so their ns/op is reported but not gated
// (allocs still are).
func gateAgainst(baseline, fresh map[string][]benchSample, names []string, alpha float64, cores int) []gateResult {
	var out []gateResult
	for _, name := range names {
		nb, ok := baseline[name]
		if !ok {
			continue
		}
		nf := fresh[name]
		var oldS, newS []float64
		var oldA, newA float64
		for _, s := range nb {
			oldS = append(oldS, s.ns)
			oldA += s.allocs
		}
		for _, s := range nf {
			newS = append(newS, s.ns)
			newA += s.allocs
		}
		oldA /= float64(len(nb))
		newA /= float64(len(nf))
		r := gateResult{
			name:  name,
			oldNs: mean(oldS), newNs: mean(newS),
			oldAllocs: oldA, newAllocs: newA,
			p: mannWhitneyP(oldS, newS),
		}
		// With fewer than 4 samples a side the exact two-sided test cannot
		// reach alpha=0.05 at all; flag it instead of silently passing.
		if minSig := minAchievableP(len(oldS), len(newS)); minSig > alpha {
			r.untested = true
		}
		if w := widthOf(name); cores > 0 && w > cores {
			r.skipped = fmt.Sprintf("width %d > %d CPU(s), ns/op not gated", w, cores)
		}
		switch {
		case newA > oldA+1-1e-9:
			r.regressed = true
			r.reason = fmt.Sprintf("allocs/op %.2f -> %.2f", oldA, newA)
		case r.skipped != "":
			// serialized parallel row: ns/op is noise, only allocs gate.
		case !r.untested && r.p <= alpha && r.newNs > r.oldNs:
			r.regressed = true
			r.reason = fmt.Sprintf("ns/op +%.1f%% (p=%.3f)", 100*(r.newNs/r.oldNs-1), r.p)
		case !r.untested && r.p <= alpha && r.newNs < r.oldNs:
			r.improved = true
		}
		out = append(out, r)
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minAchievableP is the smallest two-sided p-value an exact test over
// C(n+m, n) assignments can produce: 2/C(n+m, n).
func minAchievableP(n, m int) float64 {
	c := 1.0
	for i := 1; i <= n; i++ {
		c = c * float64(m+i) / float64(i)
	}
	return 2 / c
}

// loadBaseline reads a committed BENCH_<area>.json and re-parses its raw
// benchmark lines into per-benchmark samples (means alone cannot feed a
// rank test), alongside the core count the baseline was recorded on
// (0 when the file predates the cores field).
func loadBaseline(path string) (map[string][]benchSample, int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var f benchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	samples, _, _, _, err := parseBenchText(strings.NewReader(strings.Join(f.Raw, "\n")))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("%s: no raw benchmark lines", path)
	}
	return samples, f.Cores, nil
}

// runBenchGate reads fresh benchmark text from r, compares it against every
// comma-separated baseline file, prints a verdict table, and reports
// whether any benchmark regressed.
func runBenchGate(r io.Reader, baselines string, alpha float64) (failed bool, err error) {
	fresh, names, _, _, err := parseBenchText(r)
	if err != nil {
		return false, err
	}
	if len(fresh) == 0 {
		return false, fmt.Errorf("no benchmark result lines on input")
	}
	baseline := make(map[string][]benchSample)
	cores := runtime.NumCPU()
	for _, path := range strings.Split(baselines, ",") {
		bs, c, err := loadBaseline(strings.TrimSpace(path))
		if err != nil {
			return false, err
		}
		if c > 0 && c < cores {
			cores = c
		}
		for k, v := range bs {
			baseline[k] = v
		}
	}
	results := gateAgainst(baseline, fresh, names, alpha, cores)
	if len(results) == 0 {
		return false, fmt.Errorf("no benchmark on input matches any baseline entry")
	}
	compared := make(map[string]bool)
	for _, r := range results {
		compared[r.name] = true
		verdict := "ok"
		switch {
		case r.regressed:
			verdict = "REGRESSED (" + r.reason + ")"
		case r.skipped != "":
			verdict = r.skipped
		case r.improved:
			verdict = fmt.Sprintf("improved %.1f%% (p=%.3f)", 100*(1-r.newNs/r.oldNs), r.p)
		case r.untested:
			verdict = "too few samples for significance"
		}
		fmt.Printf("%-44s %12.0f -> %12.0f ns/op  %s\n", r.name, r.oldNs, r.newNs, verdict)
		if r.regressed {
			failed = true
		}
	}
	var skipped []string
	for name := range baseline {
		if !compared[name] {
			skipped = append(skipped, name)
		}
	}
	sort.Strings(skipped)
	for _, name := range skipped {
		fmt.Printf("%-44s (not run — kept baseline)\n", name)
	}
	return failed, nil
}
