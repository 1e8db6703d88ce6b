package apprt_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/comm"
)

// TestHostCountsGolden pins what every registered app costs the kernel on
// both backends at its reference size (seed 1, the default engine, as
// `dvbench -app <app> -net dv|ib` runs it): events fired, process resumes
// and the deepest queue, from cluster.KernelCounts around each run. The
// counts are simulator cost, not simulated behaviour, so a change to how the
// kernel or a layer waits moves them and nothing else — which row moved, and
// by how much, is that change's exact claim. Runs are serial: the counters
// are process-wide. Regenerate with
// go test ./internal/apprt -run TestHostCountsGolden -update-golden.
func TestHostCountsGolden(t *testing.T) {
	var b strings.Builder
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			slug := map[comm.Net]string{comm.DV: "dv", comm.IB: "ib"}[net]
			ev0, rs0, pk0 := cluster.KernelCounts()
			if _, err := a.Run(apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: 1}); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, slug, err)
			}
			ev1, rs1, pk1 := cluster.KernelCounts()
			fmt.Fprintf(&b, "%-10s %s  events=%d  resumes=%d  peak_pending=%d\n",
				a.Name, slug, ev1-ev0, rs1-rs0, pk1-pk0)
		}
	}
	lineGolden(t, "host_counts.golden", b.String(), "host counts moved")
}

// lineGolden compares got with testdata/<name> line by line, naming each
// line that moved, or rewrites the file under -update-golden.
func lineGolden(t *testing.T, name, got, moved string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s at line %d:\n  got:  %s\n  want: %s", moved, i+1, g, w)
		}
	}
}
