package bench

import "testing"

// TestExtReliability pins the extension-N acceptance claims: every reliable
// row validates, every nonzero-rate reliable row retransmits, and at least
// one unprotected row fails visibly.
func TestExtReliability(t *testing.T) {
	tb := ExtReliability(small)
	checkTable(t, tb, 12)
	var unprotectedFailures int
	for _, r := range tb.Rows {
		workload, path, valid := r[0].String(), r[2].String(), r[3].String()
		rate, _ := r[1].Value()
		retrans, _ := r[7].Value()
		switch path {
		case "reliable":
			if valid != "yes" {
				t.Errorf("%s@%g reliable row not valid: %v", workload, rate, r)
			}
			if rate != 0 && workload != "barrier" && retrans == 0 {
				t.Errorf("%s@%g reliable row without retransmits: %v", workload, rate, r)
			}
		case "unprotected":
			if valid == "NO" {
				unprotectedFailures++
			}
			if retrans != 0 {
				t.Errorf("%s@%g unprotected row retransmitted: %v", workload, rate, r)
			}
		default:
			t.Errorf("unknown path %q in %v", path, r)
		}
	}
	if unprotectedFailures == 0 {
		t.Error("no unprotected run failed under injected loss")
	}
}
