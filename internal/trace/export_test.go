package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

const us = sim.Microsecond

func sampleLog() *Log {
	return &Log{
		States:   []StateRec{{0, "compute", 0, 3 * us}, {1, "comm", 2 * us, 5 * us}},
		Messages: []MsgRec{{0, 1, 1 * us, 4 * us, 64}, {1, 0, 3 * us, 6 * us, 8}},
	}
}

// TestWriteChrome checks the export is a well-formed trace-event JSON with
// one span per record, in states-then-messages order.
func TestWriteChrome(t *testing.T) {
	var sb strings.Builder
	if err := sampleLog().WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "{\"traceEvents\":[") {
		t.Errorf("missing traceEvents envelope:\n%s", out)
	}
	for _, want := range []string{
		`"name":"state:compute"`, `"name":"state:comm"`,
		`"cat":"net"`, `"bytes":64`, `"displayTimeUnit":"ns"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
	if got := strings.Count(out, `"ph":"X"`); got != 4 {
		t.Errorf("chrome export has %d spans, want 4", got)
	}
	// Deterministic: a second export is byte-identical.
	var sb2 strings.Builder
	if err := sampleLog().WriteChrome(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("chrome export not deterministic")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestChromeGolden pins the exact Chrome trace of a small fixed log. Run with
// -update to regenerate the golden file after an intentional format change.
func TestChromeGolden(t *testing.T) {
	l := &Log{
		States: []StateRec{
			{0, "compute", 0, 3 * us}, {1, "compute", us / 2, 5 * us / 2}, {1, "comm", 5 * us / 2, 5 * us},
		},
		Messages: []MsgRec{{0, 1, us, 4 * us, 64}, {1, 0, 3 * us, 6 * us, 8}},
	}
	var out bytes.Buffer
	if err := l.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "small_trace.trace.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("export differs from golden file %s:\ngot:\n%s\nwant:\n%s", golden, out.String(), want)
	}
}

// TestWriteFile writes one file per known extension, each with the bytes of
// its writer, and rejects any other extension before creating a file.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	l := sampleLog()
	var csv, chrome, gantt, prv, pcf, row bytes.Buffer
	for _, err := range []error{
		l.WriteCSV(&csv), l.WriteChrome(&chrome), l.RenderASCII(&gantt, GanttWidth), l.WriteParaver(&prv, &pcf, &row),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		name string
		want []byte
	}{
		{"t.csv", csv.Bytes()}, {"t.json", chrome.Bytes()}, {"t.txt", gantt.Bytes()},
		{"t.prv", prv.Bytes()}, {"t.pcf", pcf.Bytes()}, {"t.row", row.Bytes()},
	} {
		if filepath.Ext(f.name) != ".pcf" && filepath.Ext(f.name) != ".row" {
			if err := l.WriteFile(filepath.Join(dir, f.name)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s differs from its writer's output", f.name)
		}
	}
	for _, bad := range []string{"t.bogus", "t", "t.CSV", "t.pcf"} {
		if err := CheckPath(bad); err == nil {
			t.Errorf("CheckPath accepted %q", bad)
		}
		if err := l.WriteFile(filepath.Join(dir, bad)); err == nil {
			t.Errorf("WriteFile accepted %q", bad)
		}
		if _, err := os.Stat(filepath.Join(dir, bad)); bad != "t.pcf" && err == nil {
			t.Errorf("WriteFile created %q", bad)
		}
	}
}
