package bench

import (
	"runtime"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// TestSweepOrderAndCoverage checks that results land at their point's index
// for every jobs setting, including clamping and degenerate sizes.
func TestSweepOrderAndCoverage(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 4, runtime.NumCPU() + 7} {
		const n = 53
		out := Sweep(jobs, n, func(i int) int { return i * i })
		if len(out) != n {
			t.Fatalf("jobs=%d: got %d results, want %d", jobs, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
	if got := Sweep(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Errorf("n=0 sweep returned %d results", len(got))
	}
}

// TestSweepDeterministic runs real experiments serially and in parallel and
// requires identical tables — the property the -jobs flag advertises. extH
// drives switch cores; validate runs clusters whose points share references
// that the first of them computes.
func TestSweepDeterministic(t *testing.T) {
	for _, exp := range []func(Options) *Table{ExtFaults, Validate} {
		serial, par := exp(Options{Small: true, Jobs: 1}), exp(Options{Small: true, Jobs: 4})
		if len(serial.Rows) != len(par.Rows) {
			t.Fatalf("%s: row counts differ: %d vs %d", serial.ID, len(serial.Rows), len(par.Rows))
		}
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				if serial.Rows[i][j] != par.Rows[i][j] {
					t.Errorf("%s row %d col %d: serial %q, parallel %q",
						serial.ID, i, j, serial.Rows[i][j], par.Rows[i][j])
				}
			}
		}
	}
}

// BenchmarkSweepParallel measures the sweep runner on a representative
// switch-traffic workload at 1 vs 4 workers; near-linear scaling to 4 is the
// acceptance bar.
func BenchmarkSweepParallel(b *testing.B) {
	work := func(i int) int64 {
		st := drive(dvswitch.NewCore(dvswitch.Params{Heights: 8, Angles: 4}),
			dvswitch.Traffic{Load: 0.5, QueueCap: 8}, sim.NewRNG(7), 2000)
		return st.Delivered + int64(i)
	}
	for _, jobs := range []int{1, 4} {
		b.Run(map[int]string{1: "jobs1", 4: "jobs4"}[jobs], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				Sweep(jobs, 8, work)
			}
		})
	}
}
