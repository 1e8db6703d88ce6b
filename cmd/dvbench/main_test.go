package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/apprt"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the goldens under testdata")

// TestExperimentWallLine: dvbench writes one line per experiment naming
// its wall seconds, the points it computed and the longest of them; a
// replay from a complete journal computes none.
func TestExperimentWallLine(t *testing.T) {
	sel, err := bench.SelectExperiments("fig4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() string {
		j, err := bench.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		runExperiments(sel, bench.Options{Small: true, Journal: j}, func(*trace.Log) {}, &b)
		if err := errors.Join(j.Err(), j.Close()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := run()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	points := strings.Count(string(journal), "\n")
	want := regexp.MustCompile(fmt.Sprintf(`^wall: fig4 \d+\.\d{3} s, %d points, longest fig4\[\d+\] \d+\.\d{3} s\n$`, points))
	if points == 0 || !want.MatchString(first) {
		t.Errorf("first run wrote %q; want one line matching %s", first, want)
	}
	if replay := run(); !regexp.MustCompile(`^wall: fig4 \d+\.\d{3} s, 0 points, longest none\n$`).MatchString(replay) {
		t.Errorf("replay wrote %q; want 0 points", replay)
	}
}

// TestSmallGolden pins what `dvbench -small` produces: every table as it
// prints, the -json bytes, and the SHA-256 of every SVG -svg renders at
// 720x440. Every experiment of "all" runs once, through dvbench's loop, in
// table order, with Figure 5's trace handed out exactly once. The run is
// journaled, and replaying the same selection from the complete journal must
// print the same bytes without journaling anything: every run of every
// experiment but fig5 is a point. Regenerate with
// go test ./cmd/dvbench -run TestSmallGolden -update-golden.
func TestSmallGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at -small size")
	}
	var traced int
	sel, err := bench.SelectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := bench.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	tables := runExperiments(sel, bench.Options{Small: true, Journal: j}, func(*trace.Log) { traced++ }, nil)
	if err := errors.Join(j.Err(), j.Close()); err != nil {
		t.Fatal(err)
	}
	want := []string{"fig3a", "fig3b", "fig4", "fig5", "fig6a", "fig6b",
		"fig7", "fig8", "fig9", "extA", "extB", "extC", "extD", "extE", "extF", "extG", "extH", "extI", "extJ", "extK", "extL", "extM", "extN", "extS"}
	if len(tables) != len(want) || traced != 1 {
		t.Fatalf("got %d tables and %d traces, want %d and 1", len(tables), traced, len(want))
	}
	for i, id := range want {
		if tables[i].ID != id {
			t.Errorf("table %d is %s, want %s", i, tables[i].ID, id)
		}
	}

	printed := func(tables []*bench.Table) string {
		var b strings.Builder
		for _, tb := range tables {
			tb.Fprint(&b)
		}
		if err := bench.WriteAllJSON(&b, tables); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	journal := filepath.Join(dir, "journal.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	j, err = bench.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ev0, _, _, _ := cluster.KernelCounts()
	replayed := runExperiments(sel, bench.Options{Small: true, Journal: j}, func(*trace.Log) {}, nil)
	ev1, _, _, _ := cluster.KernelCounts()
	if err := errors.Join(j.Err(), j.Close()); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(journal); err != nil || len(after) != len(before) {
		t.Errorf("replaying a complete journal ran and journaled %d more bytes (%v)", len(after)-len(before), err)
	}
	// fig5 alone simulates on replay: the replay's kernel events are its.
	fig5, _ := bench.SelectExperiments("fig5")
	runExperiments(fig5, bench.Options{Small: true}, func(*trace.Log) {}, nil)
	if ev2, _, _, _ := cluster.KernelCounts(); ev1-ev0 != ev2-ev1 {
		t.Errorf("replaying a complete journal simulated %d kernel events, fig5 alone %d", ev1-ev0, ev2-ev1)
	}
	if got, want := printed(replayed), printed(tables); got != want {
		t.Errorf("tables replayed from the journal differ from the journaled run:\n%s", want)
	}

	var b strings.Builder
	b.WriteString(printed(tables))
	svgDir := t.TempDir()
	if _, err := writeSVGs(svgDir, tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		svg, err := os.ReadFile(filepath.Join(svgDir, tb.ID+".svg"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s.svg sha256:%x\n", tb.ID, sha256.Sum256(svg))
	}

	checkGolden(t, "small.golden", b.String())
}

// TestInfoGolden pins what `dvbench -info` prints for the paper's testbed and
// for 256 nodes on two planes: the calibration every run reads from the
// layers' defaults. Regenerate with
// go test ./cmd/dvbench -run TestInfoGolden -update-golden.
func TestInfoGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{{"-info"}, {"-info", "-nodes", "256", "-planes", "2"}} {
		fs := flag.NewFlagSet("dvbench", flag.ContinueOnError)
		fs.Bool("info", false, "")
		run := apprt.BindRunFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "$ dvbench %s\n", strings.Join(args, " "))
		if err := printInfo(&b, run); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "info.golden", b.String())
}

// checkGolden compares got with testdata/name line by line, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s moved at line %d:\n  got:  %s\n  want: %s", name, i+1, g, w)
		}
	}
}
