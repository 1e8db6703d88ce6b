package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMannWhitneyExactSeparated(t *testing.T) {
	// Fully separated groups of 3: the observed assignment and its mirror
	// are the only ones as extreme, so p = 2/C(6,3) = 0.1 exactly.
	p := mannWhitneyP([]float64{1, 2, 3}, []float64{4, 5, 6})
	if math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("p = %v, want 0.1", p)
	}
	// count=6 fully separated: p = 2/C(12,6) = 2/924.
	p = mannWhitneyP([]float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12})
	if math.Abs(p-2.0/924) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, 2.0/924)
	}
}

func TestMannWhitneyTiesAndSymmetry(t *testing.T) {
	a := []float64{1, 1, 2, 3}
	b := []float64{1, 2, 2, 3}
	pab, pba := mannWhitneyP(a, b), mannWhitneyP(b, a)
	if pab != pba {
		t.Fatalf("asymmetric: p(a,b)=%v p(b,a)=%v", pab, pba)
	}
	if pab <= 0 || pab > 1 {
		t.Fatalf("p out of range: %v", pab)
	}
	if p := mannWhitneyP([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Fatalf("identical samples: p = %v, want 1", p)
	}
}

func TestMannWhitneyLargeSampleFallback(t *testing.T) {
	// 18 vs 18 would need C(36,18) ~ 9e9 exact assignments — the fallback
	// must answer immediately (this test hangs for hours if it doesn't).
	sep := make([]float64, 18)
	shifted := make([]float64, 18)
	same := make([]float64, 18)
	for i := range sep {
		sep[i] = float64(i)
		shifted[i] = float64(i) + 100
		same[i] = float64(i % 3)
	}
	if p := mannWhitneyP(sep, shifted); p > 1e-6 {
		t.Fatalf("fully separated 18v18: p = %v, want ~0", p)
	}
	if p := mannWhitneyP(sep, sep); p < 0.9 {
		t.Fatalf("identical 18v18: p = %v, want ~1", p)
	}
	if p, q := mannWhitneyP(sep, shifted), mannWhitneyP(shifted, sep); p != q {
		t.Fatalf("asymmetric fallback: %v vs %v", p, q)
	}
	if p := mannWhitneyP(same, same); p != 1 {
		t.Fatalf("all-tied 18v18: p = %v, want 1", p)
	}
	// Threshold sanity: the CI shape (6 fresh vs 18 baseline) stays exact.
	if c := binomialFloat(24, 6); c != 134596 {
		t.Fatalf("C(24,6) = %v, want 134596", c)
	}
	if c := binomialFloat(36, 18); c <= maxExactAssignments {
		t.Fatalf("C(36,18) = %v, should exceed the exact-enumeration bound", c)
	}
}

// TestMannWhitneyNormalAllTied pins the degenerate branch of the normal
// approximation: when every pooled value is identical the tie correction
// drives the variance to (or below) zero, and the only defensible answer is
// p = 1 — no evidence of a shift, never a divide-by-zero NaN.
func TestMannWhitneyNormalAllTied(t *testing.T) {
	for _, sizes := range [][2]int{{3, 3}, {5, 4}, {18, 18}} {
		a := make([]float64, sizes[0])
		b := make([]float64, sizes[1])
		for i := range a {
			a[i] = 42
		}
		for i := range b {
			b[i] = 42
		}
		if p := mannWhitneyNormalP(a, b); p != 1 {
			t.Fatalf("all-tied %dv%d: p = %v, want exactly 1", sizes[0], sizes[1], p)
		}
	}
}

// TestMannWhitneyNormalHeavyTies exercises the tie-corrected variance with
// samples quantized to a handful of levels: the variance must stay positive,
// p must stay in (0, 1], symmetry must hold, and a real shift between two
// heavily tied distributions must still be detected.
func TestMannWhitneyNormalHeavyTies(t *testing.T) {
	// 18v18, three levels each, mostly overlapping: no real shift.
	a := make([]float64, 18)
	b := make([]float64, 18)
	for i := range a {
		a[i] = float64(i % 3)
		b[i] = float64((i + 1) % 3)
	}
	p := mannWhitneyNormalP(a, b)
	if p <= 0 || p > 1 {
		t.Fatalf("heavy ties: p = %v out of (0,1]", p)
	}
	if p < 0.5 {
		t.Fatalf("same three-level distribution: p = %v, want no evidence of shift", p)
	}
	if q := mannWhitneyNormalP(b, a); q != p {
		t.Fatalf("asymmetric under ties: %v vs %v", p, q)
	}
	// Two levels, nearly disjoint: 17 zeros + one 1 vs 17 ones + one 0.
	// Uncorrected variance would overstate the spread; the corrected one
	// must still call this a decisive shift.
	lo := make([]float64, 18)
	hi := make([]float64, 18)
	for i := range lo {
		lo[i], hi[i] = 0, 1
	}
	lo[0], hi[0] = 1, 0
	if p := mannWhitneyNormalP(lo, hi); p > 1e-6 {
		t.Fatalf("near-disjoint two-level 18v18: p = %v, want ~0", p)
	}
}

// TestMannWhitneyExactVsNormalAgreement cross-checks the two p-value paths
// on seeded tied draws at the largest size the exact enumeration still
// covers (10v10; C(20,10) is under the enumeration bound, while the gate's
// larger shapes fall back to the normal path tested here). The continuity-
// corrected normal approximation tracks the exact permutation p to within a
// few hundredths even with samples quantized to five levels.
func TestMannWhitneyExactVsNormalAgreement(t *testing.T) {
	if c := binomialFloat(20, 10); c > maxExactAssignments {
		t.Fatalf("C(20,10) = %v no longer exact; shrink the cross-check size", c)
	}
	seed := uint64(12345)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for trial := 0; trial < 12; trial++ {
		a := make([]float64, 10)
		b := make([]float64, 10)
		for i := range a {
			a[i] = float64(next() % 5)
		}
		for i := range b {
			b[i] = float64(next()%5) + float64(trial%3)
		}
		exact := mannWhitneyP(a, b)
		approx := mannWhitneyNormalP(a, b)
		if math.Abs(exact-approx) > 0.05 {
			t.Errorf("trial %d: exact %.4f vs normal %.4f diverge past 0.05\na=%v\nb=%v",
				trial, exact, approx, a, b)
		}
	}
}

const benchTextOld = `goos: linux
goarch: amd64
pkg: repro/internal/dvswitch
cpu: test cpu
BenchmarkFoo 	 1000	 100.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkFoo 	 1000	 101.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkFoo 	 1000	 102.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkFoo 	 1000	 100.5 ns/op	 0 B/op	 0 allocs/op
BenchmarkFoo 	 1000	 101.5 ns/op	 0 B/op	 0 allocs/op
BenchmarkFoo 	 1000	 100.2 ns/op	 0 B/op	 0 allocs/op
PASS
`

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emitBenchJSON(strings.NewReader(benchTextOld), path, "test baseline"); err != nil {
		t.Fatal(err)
	}
	return path
}

func freshText(ns string, allocs string) string {
	var sb strings.Builder
	for i := 0; i < 6; i++ {
		sb.WriteString("BenchmarkFoo-4 \t 1000\t " + ns + " ns/op\t 0 B/op\t " + allocs + " allocs/op\n")
	}
	return sb.String()
}

func TestBenchGateVerdicts(t *testing.T) {
	base := writeBaseline(t)
	cases := []struct {
		name   string
		text   string
		failed bool
	}{
		{"regression", freshText("150.0", "0"), true},
		{"alloc regression", freshText("100.0", "2"), true},
		{"improvement", freshText("50.0", "0"), false},
		{"unchanged", benchTextOld, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failed, err := runBenchGate(strings.NewReader(tc.text), base, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if failed != tc.failed {
				t.Fatalf("failed = %v, want %v", failed, tc.failed)
			}
		})
	}
}

// allocs/op of a whole-run benchmark flips between two integers with GC
// timing; only a mean higher by a full alloc is a regression.
func TestBenchGateAllocRounding(t *testing.T) {
	lines := func(allocs ...int) string {
		var sb strings.Builder
		for _, a := range allocs {
			fmt.Fprintf(&sb, "BenchmarkApp \t 600\t 1000.0 ns/op\t 64 B/op\t %d allocs/op\n", a)
		}
		return sb.String()
	}
	base := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := emitBenchJSON(strings.NewReader(lines(7138, 7138, 7138, 7139, 7138, 7138)), base, "mixed"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		fresh  string
		failed bool
	}{
		{"same mix", lines(7139, 7138, 7139, 7138, 7139, 7138), false},
		{"all on the upper integer", lines(7139, 7139, 7139, 7139, 7139, 7139), false},
		{"one more alloc per op", lines(7139, 7139, 7139, 7140, 7139, 7139), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failed, err := runBenchGate(strings.NewReader(tc.fresh), base, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if failed != tc.failed {
				t.Fatalf("failed = %v, want %v", failed, tc.failed)
			}
		})
	}
}

func TestBenchGateTooFewSamples(t *testing.T) {
	// 2-a-side can never reach alpha=0.05 exactly; the gate must not claim
	// significance (and must not fail) on pure ns/op movement.
	base := writeBaseline(t)
	two := "BenchmarkFoo \t 10\t 500.0 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkFoo \t 10\t 501.0 ns/op\t 0 B/op\t 0 allocs/op\n"
	failed, err := runBenchGate(strings.NewReader(two), base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("gate failed on a sample count that cannot reach significance")
	}
}

func TestEmitBenchJSONRoundTrip(t *testing.T) {
	path := writeBaseline(t)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"note": "test baseline"`, `"cores":`, `"BenchmarkFoo"`, `"ns_per_op": 100.87`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("baseline missing %q:\n%s", want, buf)
		}
	}
	samples, cores, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples["BenchmarkFoo"]) != 6 {
		t.Fatalf("raw round trip lost samples: %d", len(samples["BenchmarkFoo"]))
	}
	if cores < 1 {
		t.Fatalf("baseline cores = %d, want >= 1", cores)
	}
}

func TestBenchGateSkipsOverWidthParallelRows(t *testing.T) {
	// A /workersN row wider than the recorded core budget measures barrier
	// spin, not scaling: huge ns/op swings must not fail the gate, but an
	// allocs/op increase still must.
	dir := t.TempDir()
	raw := []string{
		"goos: linux", "goarch: amd64", "cpu: test cpu",
	}
	for i := 0; i < 6; i++ {
		raw = append(raw,
			fmt.Sprintf("BenchmarkPar/workers8 \t 10\t %d.0 ns/op\t 0 B/op\t 0 allocs/op", 1000+i))
	}
	base := filepath.Join(dir, "BENCH_w.json")
	fileJSON, err := json.Marshal(benchFile{Cores: 1, Count: 6, Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, fileJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	slower := strings.Repeat("BenchmarkPar/workers8 \t 10\t 9000.0 ns/op\t 0 B/op\t 0 allocs/op\n", 6)
	failed, err := runBenchGate(strings.NewReader(slower), base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("gate failed on ns/op movement of a serialized parallel row")
	}
	allocs := strings.Repeat("BenchmarkPar/workers8 \t 10\t 1000.0 ns/op\t 64 B/op\t 2 allocs/op\n", 6)
	failed, err = runBenchGate(strings.NewReader(allocs), base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("gate ignored an allocs/op regression on a skipped-width row")
	}
}
