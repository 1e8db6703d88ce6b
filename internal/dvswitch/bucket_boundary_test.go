package dvswitch

// Boundary audit for the log2 latency buckets: Stats.LatHist and
// obs.Histogram both bucket by obs.Log2Bucket ("bucket i counts values in
// [2^i, 2^(i+1))"); the table below pins the assignment at every power-of-two
// boundary, so an off-by-one (bits.Len vs bits.Len-1, inclusive vs exclusive
// upper edge) fails loudly.

import (
	"testing"

	"repro/internal/obs"
)

func TestLog2BucketBoundaries(t *testing.T) {
	type tc struct {
		v    int64
		want int // bucket i covers [2^i, 2^(i+1))
	}
	cases := []tc{
		{0, 0}, // clamped to 1
		{1, 0},
		{2, 1},
		{3, 1},
	}
	for _, k := range []uint{2, 3, 7, 16, 31, 38} {
		cases = append(cases,
			tc{int64(1)<<k - 1, int(k) - 1},
			tc{int64(1) << k, int(k)},
			tc{int64(1)<<k + 1, int(k)},
		)
	}
	// At and beyond the top boundary everything lands in the last bucket.
	cases = append(cases,
		tc{int64(1) << 39, obs.HistBuckets - 1},
		tc{int64(1)<<39 + 1, obs.HistBuckets - 1},
		tc{int64(1) << 45, obs.HistBuckets - 1},
	)
	for _, c := range cases {
		if got := obs.Log2Bucket(c.v); got != c.want {
			t.Errorf("Log2Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
