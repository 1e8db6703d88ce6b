package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/small.golden")

// TestSmallGolden pins what `dvbench -small` produces: every table as it
// prints, the -json bytes, and the SHA-256 of every SVG -svg renders at
// 720x440. Every experiment of "all" runs once, through dvbench's loop, in
// table order, with Figure 5's trace handed out exactly once. Regenerate with
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
	tables := runExperiments(sel, bench.Options{Small: true}, func(*trace.Log) { traced++ })
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

	var b strings.Builder
	for _, tb := range tables {
		tb.Fprint(&b)
	}
	if err := bench.WriteAllJSON(&b, tables); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := writeSVGs(dir, tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		svg, err := os.ReadFile(filepath.Join(dir, tb.ID+".svg"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s.svg sha256:%x\n", tb.ID, sha256.Sum256(svg))
	}

	path := filepath.Join("testdata", "small.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("-small output moved at line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}
