package dvswitch

// Boundary audit for the log2 latency buckets: dvswitch.Stats.LatHist and
// obs.Histogram implement the same bucket math independently ("bucket i
// counts values in [2^i, 2^(i+1))"); the table below pins the assignment at
// every power-of-two boundary so the two can never drift apart, and so an
// off-by-one in either (bits.Len vs bits.Len-1, inclusive vs exclusive
// upper edge) fails loudly.

import (
	"testing"

	"repro/internal/obs"
)

// bucketOf returns the LatHist bucket a single recorded latency lands in.
func bucketOf(t *testing.T, v int64) int {
	t.Helper()
	var s Stats
	s.recordLatency(v)
	got := -1
	for i, c := range s.LatHist {
		if c == 1 && got == -1 {
			got = i
		} else if c != 0 {
			t.Fatalf("recordLatency(%d): multiple buckets touched", v)
		}
	}
	if got == -1 {
		t.Fatalf("recordLatency(%d): no bucket touched", v)
	}
	return got
}

// obsBucketOf returns the obs.Histogram bucket a single observation lands in.
func obsBucketOf(t *testing.T, v int64) int {
	t.Helper()
	h := obs.NewRegistry().Histogram("b")
	h.Observe(v)
	got := -1
	for i := 0; i < obs.HistBuckets; i++ {
		if h.Bucket(i) == 1 && got == -1 {
			got = i
		} else if h.Bucket(i) != 0 {
			t.Fatalf("Observe(%d): multiple buckets touched", v)
		}
	}
	if got == -1 {
		t.Fatalf("Observe(%d): no bucket touched", v)
	}
	return got
}

func TestLog2BucketBoundaries(t *testing.T) {
	if len(Stats{}.LatHist) != obs.HistBuckets {
		t.Fatalf("Stats.LatHist has %d buckets, obs.HistBuckets = %d",
			len(Stats{}.LatHist), obs.HistBuckets)
	}
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
		if got := bucketOf(t, c.v); got != c.want {
			t.Errorf("Stats bucket(%d) = %d, want %d", c.v, got, c.want)
		}
		if got := obsBucketOf(t, c.v); got != c.want {
			t.Errorf("obs bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestLog2PercentileAgreement pins that the two percentile estimators read
// the same buckets for the same observations, including at exact powers of
// two.
func TestLog2PercentileAgreement(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025}
	var s Stats
	h := obs.NewRegistry().Histogram("p")
	for _, v := range vals {
		s.Delivered++
		s.recordLatency(v)
		h.Observe(v)
	}
	sameBuckets(t, &s, h)
}
