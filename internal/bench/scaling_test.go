package bench

import (
	"testing"

	"repro/internal/comm"
)

// TestAlltoallExchangeDeterministic smoke-tests the extS all-to-all kernel:
// every fabric variant completes, takes nonzero virtual time, and repeats to
// the identical result.
func TestAlltoallExchangeDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		net      comm.Net
		planes   int
		ibScaled bool
	}{
		{"dv-1plane", comm.DV, 0, false},
		{"dv-2plane", comm.DV, 2, false},
		{"ib-scaled", comm.IB, 0, true},
	} {
		a := alltoallExchange(tc.net, 4, 8, 2, tc.planes, tc.ibScaled)
		if a <= 0 {
			t.Fatalf("%s: exchange time %v", tc.name, a)
		}
		if b := alltoallExchange(tc.net, 4, 8, 2, tc.planes, tc.ibScaled); b != a {
			t.Errorf("%s: nondeterministic exchange: %v vs %v", tc.name, a, b)
		}
	}
}

func TestExtScalingCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend sweep")
	}
	tb := ExtScalingCrossover(small)
	checkTable(t, tb, 6)
	for _, r := range tb.Rows {
		if r[len(r)-1].Unit != Ratio {
			t.Errorf("extS row %v: crossover column should be a ratio", r)
		}
	}
}
