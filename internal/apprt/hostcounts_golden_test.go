package apprt_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

// TestHostCountsGolden pins what every registered app costs the kernel on
// both backends at its reference size (seed 1, the default engine, as
// `dvbench -app <app> -net dv|ib` runs it): events fired, process resumes,
// the deepest queue and the event stream, from cluster.KernelCounts around
// each run. The counts are simulator cost, not simulated behaviour, so a
// change to how the kernel or a layer waits moves them and nothing else —
// which row moved, and by how much, is that change's exact claim. The stream
// (sim.Kernel.Stream) is the order the run fired its events in: a change
// that re-keys or reorders them moves it, and it must not move under a
// managed pump with boundaries every 5 µs or every 1 ms. A row whose stream
// moved is run once more under cluster.Record, and its events are written
// out one per line (`at seq handler proc`) to a file the failure names, so
// that the same file written by the parent diffs to the first moved event.
// Runs are serial: the counters are process-wide. Regenerate with
// go test ./internal/apprt -run TestHostCountsGolden -update-golden.
func TestHostCountsGolden(t *testing.T) {
	want := map[string]string{} // "app net" -> the golden's stream field
	if golden, err := os.ReadFile(filepath.Join("testdata", "host_counts.golden")); err == nil {
		for _, line := range strings.Split(string(golden), "\n") {
			if f := strings.Fields(line); len(f) == 6 {
				want[f[0]+" "+f[1]] = f[5]
			}
		}
	}
	var b strings.Builder
	for _, a := range apprt.Apps() {
		for _, net := range comm.Nets() {
			slug := map[comm.Net]string{comm.DV: "dv", comm.IB: "ib"}[net]
			spec := apprt.RunSpec{Net: net, Nodes: a.RefNodes, Seed: 1}
			run := func(cp *cluster.Checkpoint) (stream uint64) {
				spec.Checkpoint = cp
				_, _, _, st0 := cluster.KernelCounts()
				if _, err := a.Run(spec); err != nil {
					t.Fatalf("%s on %s: %v", a.Name, slug, err)
				}
				_, _, _, st1 := cluster.KernelCounts()
				return st1 - st0
			}
			ev0, rs0, pk0, _ := cluster.KernelCounts()
			stream := run(nil)
			ev1, rs1, pk1, _ := cluster.KernelCounts()
			for _, every := range []sim.Time{5 * sim.Microsecond, sim.Millisecond} {
				if managed := run(&cluster.Checkpoint{Every: every}); managed != stream {
					t.Errorf("%s on %s: stream %016x under Run, %016x on a %v checkpoint grid", a.Name, slug, stream, managed, every)
				}
			}
			field := fmt.Sprintf("stream=%016x", stream)
			fmt.Fprintf(&b, "%-10s %s  events=%d  resumes=%d  peak_pending=%d  %s\n",
				a.Name, slug, ev1-ev0, rs1-rs0, pk1-pk0, field)
			if w := want[a.Name+" "+slug]; !*updateGolden && w != field {
				t.Errorf("%s on %s: %s, golden %s; its events are in %s", a.Name, slug, field, w, dumpEvents(t, a, slug, spec))
			}
		}
	}
	lineGolden(t, "host_counts.golden", b.String(), "host counts moved")
}

// dumpEvents runs app a under spec (on slug's network) through
// cluster.Record, writes every event it fired to a new file under the
// temporary directory, one `at seq handler proc` line each, and returns the
// file's path.
func dumpEvents(t *testing.T, a apprt.App, slug string, spec apprt.RunSpec) string {
	t.Helper()
	fired, err := cluster.Record(func(cp *cluster.Checkpoint) (any, error) {
		spec.Checkpoint = cp
		return a.Run(spec)
	})
	if err != nil {
		t.Fatalf("record %s on %s: %v", a.Name, slug, err)
	}
	f, err := os.CreateTemp("", "host_counts_"+a.Name+"_"+slug+"_*.events")
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for _, e := range fired {
		proc := e.Proc
		if proc == "" {
			proc = "-"
		}
		fmt.Fprintf(w, "%d %d %s %s\n", int64(e.At), e.Seq, e.Handler(), proc)
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		t.Fatal(err)
	}
	return f.Name()
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
