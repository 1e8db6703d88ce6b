package cluster

import (
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
)

// TestMultiPlaneReportDeterministic pins the multi-plane determinism
// contract: with the invariant checker live, a DVPlanes=2 run on either
// switch backend yields a byte-identical Report when repeated. It also pins the single-plane identity — DVPlanes 0 and 1
// are the same (pre-multi-plane) simulator, so their Reports match exactly.
func TestMultiPlaneReportDeterministic(t *testing.T) {
	for _, cyc := range []bool{false, true} {
		base := DefaultConfig(4)
		base.Check = check.All()
		base.CycleAccurate = cyc
		zeroJSON := reportJSON(t, Run(base, ckptBody))

		one := base
		one.DVPlanes = 1
		if got := reportJSON(t, Run(one, ckptBody)); got != zeroJSON {
			t.Errorf("cycleAccurate=%v: DVPlanes=1 Report differs from DVPlanes=0", cyc)
		}

		cfg := base
		cfg.DVPlanes = 2
		a := Run(cfg, ckptBody)
		if !a.Checks.Ok() {
			t.Fatalf("cycleAccurate=%v: invariants: %v", cyc, a.Checks)
		}
		if got, want := reportJSON(t, Run(cfg, ckptBody)), reportJSON(t, a); got != want {
			t.Errorf("cycleAccurate=%v: repeated run Report differs:\n got %s\nwant %s",
				cyc, got, want)
		}
	}
}

// TestMultiPlaneCheckpointRestore is the multi-plane capture contract: a
// managed DVPlanes=2 run finishes with a Report byte-identical to the
// straight-through unmanaged multi-plane run, and a repeat agrees with its
// images — which carry both planes' switch state — at every boundary.
func TestMultiPlaneCheckpointRestore(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = check.All()
	cfg.DVPlanes = 2
	audited(t, cfg, 2*sim.Microsecond, ckptBody, reportJSON(t, Run(cfg, ckptBody)))
}
