package obs

import "testing"

// TestInterpolatedQuantiles pins the within-bucket interpolation on known
// distributions. The legacy estimator returned the bucket's upper bound —
// for a uniform 1..100 distribution it reported p50 = 64 and p99 = 128; the
// interpolated estimator recovers the true order statistics.
func TestInterpolatedQuantiles(t *testing.T) {
	t.Run("uniform-1-100", func(t *testing.T) {
		h := NewRegistry().Histogram("u")
		for v := int64(1); v <= 100; v++ {
			h.Observe(v)
		}
		for _, tc := range []struct {
			p    float64
			want int64
		}{
			{25, 25}, {50, 50}, {90, 90}, {99, 99}, {100, 100},
		} {
			if got := h.Percentile(tc.p); got != tc.want {
				t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
			}
		}
	})

	t.Run("uniform-1-1000", func(t *testing.T) {
		h := NewRegistry().Histogram("u")
		for v := int64(1); v <= 1000; v++ {
			h.Observe(v)
		}
		// Interpolation is exact for data uniform within each bucket.
		for _, tc := range []struct {
			p    float64
			want int64
		}{
			{50, 500}, {99, 990},
		} {
			if got := h.Percentile(tc.p); got != tc.want {
				t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
			}
		}
	})

	t.Run("point-mass", func(t *testing.T) {
		// All mass at one value: every quantile sits in value's bucket
		// ([32, 64) for 42), capped by the observed max.
		h := NewRegistry().Histogram("pm")
		for i := 0; i < 100; i++ {
			h.Observe(42)
		}
		for _, p := range []float64{1, 50, 99, 100} {
			got := h.Percentile(p)
			if got < 32 || got > 42 {
				t.Errorf("p%v = %d, want within [32, 42]", p, got)
			}
		}
		if got := h.Percentile(100); got != 42 {
			t.Errorf("p100 = %d, want the max 42", got)
		}
	})

	t.Run("zeros", func(t *testing.T) {
		// Observations below 1 share bucket 0, whose interpolation range
		// starts at 0.
		h := NewRegistry().Histogram("z")
		for i := 0; i < 10; i++ {
			h.Observe(0)
		}
		if got := h.Percentile(50); got != 0 {
			t.Errorf("p50 of zeros = %d, want 0", got)
		}
	})
}
