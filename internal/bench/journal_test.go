package bench

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.PutRow("fig6a", 0, []Cell{Int(2), Num(1.5, 1, None)})
	point3 := []Cell{Int(16), Num(9.9, 1, Ratio), Dur(2128 * sim.Microsecond), Num(1e-3, 0, Sci), Text("2x4/C2")}
	j.PutRow("fig6a", 3, point3)
	if err := j.Err(); err != nil {
		t.Fatalf("journal write error: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh open must see every record.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer j2.Close()
	// Values come back, not just the text they print.
	if r, ok := j2.row("fig6a", 3); !ok || !reflect.DeepEqual(r.cells, point3) {
		t.Errorf("row 3: got %v ok=%t", r.cells, ok)
	}
	if _, ok := j2.row("fig6a", 1); ok {
		t.Error("row 1 was never journaled but resolved")
	}
}

// TestJournalTornLine simulates a SIGKILL mid-append: a torn final line is
// skipped on load and every complete record before it survives.
func TestJournalTornLine(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.PutRow("extA", 0, []Cell{Text("ok")})
	j.Close()

	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"row","table":"extA","i":1,"ce`) // torn: no newline, invalid JSON
	f.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("re-open with torn line: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.row("extA", 0); !ok {
		t.Error("complete record lost after a torn line")
	}
	if _, ok := j2.row("extA", 1); ok {
		t.Error("torn record resolved as complete")
	}
	// The fragment is gone from the file: the next record starts its own
	// line, and a third open reads both complete records.
	j2.PutRow("extA", 2, []Cell{Text("ok")})
	j2.Close()
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("re-open after appending past a torn line: %v", err)
	}
	defer j3.Close()
	if _, ok := j3.row("extA", 2); !ok {
		t.Error("record appended after a torn line lost")
	}
}

// writeJournal puts data in a fresh journal directory and opens it.
func writeJournal(t testing.TB, data string) (*Journal, error) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenJournal(dir)
}

// TestOpenJournal_Invalid: every line but a torn final one must load; a
// journal that cannot be replayed whole fails with a *JournalError naming
// the line, never a panic at print time or a silently skipped record.
func TestOpenJournal_Invalid(t *testing.T) {
	row := `{"kind":"row","table":"extA","i":0,"cells":[{"text":"a"}]}` + "\n"
	// A row extS journaled when a point was a whole row: seven cells, where
	// a point is now one run's reading.
	parentExtS := `{"kind":"row","table":"extS","i":0,"cells":[{"text":"GUPS (MUPS)"},{"v":8},{"text":"4x2/C2"},{"v":250.1,"prec":1},{"v":260.2,"prec":1},{"v":30.3,"prec":1},{"v":8.59,"unit":"x","prec":2}]}` + "\n"
	tests := []struct {
		name, data string
		line       int
		reason     string // part of the reason, when the case names one
		// sweep, when set, runs on the opened journal: a point the journal
		// holds at the wrong width is refused there, not at open.
		sweep func(*testing.T, Options)
	}{
		{"unparseable middle line", row + "not json\n" + row, 2, "does not parse", nil},
		{"unknown kind", row + `{"kind":"rows","table":"extA"}` + "\n", 2, "unknown record kind", nil},
		// A whole experiment's tables were a record of their own until every
		// run became a point.
		{"experiment record", row + `{"kind":"exp","exp":"fig4","tables":[{"ID":"fig4","Columns":["a"],"Rows":[[{"v":1}]]}]}` + "\n", 2, `unknown record kind "exp"`, nil},
		{"row wider than its columns", `{"kind":"row","table":"tbl","i":0,"cells":[{"v":1},{"v":2}]}` + "\n", 1, "2 cells, not 1",
			func(t *testing.T, opt Options) {
				SweepRows(opt, "tbl", 1, 1, func(int) []Cell { return []Cell{Int(1)} })
			}},
		{"parent-written extS row", parentExtS, 1, "extS point 0 has 7 cells, not 1",
			func(t *testing.T, opt Options) {
				if testing.Short() {
					t.Skip("runs extS at -small size")
				}
				opt.Small = true
				if got, want := ExtScalingCrossover(opt), ExtScalingCrossover(Options{Small: true}); !reflect.DeepEqual(got, want) {
					t.Errorf("extS replayed part of the journal:\n got %v\nwant %v", got.Rows, want.Rows)
				}
			}},
		{"complete bad final line", row + "{\n", 2, "does not parse", nil},
		{"unknown unit", row + `{"kind":"row","table":"extA","i":1,"cells":[{"v":1,"unit":"furlongs"}]}` + "\n", 2, `unknown unit "furlongs"`, nil},
		{"precision past the bound", row + `{"kind":"row","table":"extA","i":1,"cells":[{"v":1,"prec":400}]}` + "\n", 2, "precision 400", nil},
		// A journal from before cells carried values holds them as text; it
		// is refused, never reparsed.
		{"text-cell row", `{"kind":"row","table":"extA","i":0,"cells":["a"]}` + "\n", 1, "before cells carried values", nil},
		{"text cell after a value", row + `{"kind":"row","table":"extA","i":1,"cells":[{"v":1},"1"]}` + "\n", 2, "before cells carried values", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j, err := writeJournal(t, tt.data)
			if err == nil && tt.sweep != nil {
				tt.sweep(t, Options{Journal: j})
				err = j.Err()
			}
			var je *JournalError
			if !errors.As(err, &je) {
				j.Close()
				t.Fatalf("OpenJournal = %v, want a *JournalError", err)
			}
			if je.Line != tt.line {
				t.Errorf("error names line %d, want %d (%v)", je.Line, tt.line, err)
			}
			if !strings.Contains(je.Reason, tt.reason) {
				t.Errorf("reason %q, want it to say %q", je.Reason, tt.reason)
			}
		})
	}
}

// TestSweepRowsRejectsJournaledWidth: a journaled point narrower than its
// sweep's width (an extB point of one cell) is not replayed into the figure;
// the point is recomputed and the journal reports the bad line.
func TestSweepRowsRejectsJournaledWidth(t *testing.T) {
	j, err := writeJournal(t, `{"kind":"row","table":"extB","i":0,"cells":[{"v":1}]}`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p := SweepRows(Options{Journal: j}, "extB", 1, 2, func(int) []Cell { return []Cell{Text("x"), Text("y")} })
	if len(p) != 1 || len(p[0]) != 2 {
		t.Errorf("points = %v, want the recomputed two cells", p)
	}
	var je *JournalError
	if err := j.Err(); !errors.As(err, &je) || je.Line != 1 {
		t.Errorf("Err() = %v, want a *JournalError at line 1", err)
	}
}

// FuzzOpenJournal: any bytes on disk either open as a journal whose every
// replayed point prints and reads as values, or fail with a
// *JournalError; never a panic.
func FuzzOpenJournal(f *testing.F) {
	f.Add(`{"kind":"row","table":"extA","i":0,"cells":[{"text":"a"},{"v":2.5,"unit":"x","prec":2}]}` + "\n")
	f.Add(`{"kind":"row","table":"fig9","i":0,"cells":[{"v":2128000000,"unit":"duration"}]}` + "\n" + `{"kind":"ro`)
	f.Fuzz(func(t *testing.T, data string) {
		j, err := writeJournal(t, data)
		if err != nil {
			var je *JournalError
			if !errors.As(err, &je) {
				t.Fatalf("OpenJournal = %v, want a *JournalError", err)
			}
			return
		}
		defer j.Close()
		for _, r := range j.rows {
			for _, c := range r.cells {
				_ = c.String()
				c.Value()
			}
		}
	})
}

func TestSweepRowsSkipsJournaled(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	j.PutRow("tbl", 1, []Cell{Text("from-journal")})

	var calls int32
	rows := SweepRows(Options{Journal: j}, "tbl", 3, 1, func(i int) []Cell {
		atomic.AddInt32(&calls, 1)
		return []Cell{Text("computed")}
	})
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (point 1 journaled)", calls)
	}
	if len(rows) != 3 || rows[1][0] != Text("from-journal") || rows[0][0] != Text("computed") || rows[2][0] != Text("computed") {
		t.Errorf("rows = %v", rows)
	}
	// The fresh points were journaled as they finished.
	if _, ok := j.row("tbl", 0); !ok {
		t.Error("computed point 0 not journaled")
	}
}

func TestSweepRowsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int32
	p := SweepRows(Options{Ctx: ctx}, "tbl", 4, 1, func(i int) []Cell {
		atomic.AddInt32(&calls, 1)
		return []Cell{Text("x")}
	})
	if calls != 0 {
		t.Errorf("fn ran %d times under a canceled context", calls)
	}
	if p != nil {
		t.Errorf("a canceled sweep returned points %v", p)
	}
}

// TestSweepRowsNilJournal: SweepRows without a journal or context is plain
// Sweep — every point computes.
func TestSweepRowsNilJournal(t *testing.T) {
	var calls int32
	p := SweepRows(Options{}, "tbl", 3, 1, func(i int) []Cell {
		atomic.AddInt32(&calls, 1)
		return []Cell{Text("y")}
	})
	if calls != 3 || len(p) != 3 {
		t.Errorf("calls=%d points=%d", calls, len(p))
	}
}
