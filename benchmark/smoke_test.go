package main

import (
	"math"
	"testing"
)

// smoke is every workload at a sixteenth of its size, one set-up and one
// run, all checks on: a change that breaks a workload, a check or a driver
// fails here rather than in a benchmark run.
var smoke = runConfig{seed: 1, seconds: 0, shrink: smokeShrink, setups: 1, minReps: 1}

func TestSmokeTimedPass(t *testing.T) {
	for _, w := range workloads {
		l, err := timedPass(w, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if l.Checks.Failed != 0 || l.Checks.Attempted < 2 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, l.Checks.Failed, l.Checks.Attempted, l.Checks.Failures)
		}
		r := report{ledger: l}
		if _, err := r.line(); err != nil {
			t.Error(err)
		}
		for _, d := range endToEnd {
			if v := l.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, d.Name, v)
			}
		}
	}
}

// TestSmokeOtherSeed: another seed skips the pinned statistics but still
// holds every run to the first.
func TestSmokeOtherSeed(t *testing.T) {
	cfg := smoke
	cfg.seed, cfg.minReps = 12345, 2
	w, _ := findWorkload("gups_dv_fast")
	l, err := timedPass(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Checks.Failed != 0 || l.Checks.Attempted != 1+1+2 { // the warm-up, the first run, the second run and its statistics
		t.Errorf("%d of %d checks failed: %v", l.Checks.Failed, l.Checks.Attempted, l.Checks.Failures)
	}
}

// TestSmokeTracedPass runs the traced pass, every driver included, under the
// two workloads whose own runs are one side of a fidelity twin.
func TestSmokeTracedPass(t *testing.T) {
	for _, name := range []string{"gups_dv_fast", "a2a_dv_cycle256"} {
		w, _ := findWorkload(name)
		t.Run(name, func(t *testing.T) { smokeTracedPass(t, w) })
	}
}

func smokeTracedPass(t *testing.T, w workload) {
	l, err := tracedPass(w, smoke)
	if err != nil {
		t.Fatal(err)
	}
	if l.Checks.Failed != 0 {
		t.Errorf("%d checks failed: %v", l.Checks.Failed, l.Checks.Failures)
	}
	r := report{ledger: l}
	if _, err := r.line(); err != nil {
		t.Error(err)
	}
	sum := 0.0
	for _, layer := range layerNames {
		sum += l.Metrics[shareMetric(layer)].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v", sum)
	}
	for _, d := range drivers {
		for _, m := range d.metrics {
			if v := l.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s = %v, want a positive number", m.Name, v)
			}
		}
	}
	if len(l.Spans) < 3+len(drivers) {
		t.Errorf("%d spans recorded", len(l.Spans))
	}
}

func TestPinnedStatsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if _, err := pinnedStats(w.name); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfcheckBounds(t *testing.T) {
	mk := func(wall float64) report {
		return report{ledger: ledger{Workload: "w", Metrics: map[string]measured{
			"wall_s": {Value: wall}, "sim_ops_per_s": {Value: 100 / wall}, "alloc_mb": {Value: 10}, "setup_s": {Value: 1},
		}}}
	}
	bound := endToEnd[0].Bound // wall_s; sim_ops_per_s has the same
	if bad := selfcheck(mk(1), mk(1+bound/2)); len(bad) != 0 {
		t.Errorf("half the bound apart flagged: %v", bad)
	}
	if bad := selfcheck(mk(1), mk(1+2*bound)); len(bad) != 2 {
		t.Errorf("twice the bound apart: %v", bad)
	}
	a, b := mk(1), mk(1)
	b.Stats.Delivered = 1
	if bad := selfcheck(a, b); len(bad) != 1 {
		t.Errorf("different statistics: %v", bad)
	}
}
