package bench

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.PutRow("fig6a", 0, []string{"2", "1.5"})
	j.PutRow("fig6a", 3, []string{"16", "9.9"})
	tab := &Table{ID: "fig4", Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	j.PutExperiment("fig4", []*Table{tab})
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
	if cells, ok := j2.Row("fig6a", 3); !ok || !reflect.DeepEqual(cells, []string{"16", "9.9"}) {
		t.Errorf("row 3: got %v ok=%t", cells, ok)
	}
	if _, ok := j2.Row("fig6a", 1); ok {
		t.Error("row 1 was never journaled but resolved")
	}
	if ts, ok := j2.Experiment("fig4"); !ok || len(ts) != 1 || !reflect.DeepEqual(ts[0], tab) {
		t.Errorf("experiment: got %+v ok=%t", ts, ok)
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
	j.PutRow("extA", 0, []string{"ok"})
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
	if _, ok := j2.Row("extA", 0); !ok {
		t.Error("complete record lost after a torn line")
	}
	if _, ok := j2.Row("extA", 1); ok {
		t.Error("torn record resolved as complete")
	}
}

func TestSweepRowsSkipsJournaled(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	j.PutRow("tbl", 1, []string{"from-journal"})

	var calls int32
	rows := SweepRows(Options{Journal: j}, "tbl", 3, func(i int) []string {
		atomic.AddInt32(&calls, 1)
		return []string{"computed"}
	})
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (point 1 journaled)", calls)
	}
	if rows[1][0] != "from-journal" || rows[0][0] != "computed" || rows[2][0] != "computed" {
		t.Errorf("rows = %v", rows)
	}
	// The fresh points were journaled as they finished.
	if _, ok := j.Row("tbl", 0); !ok {
		t.Error("computed point 0 not journaled")
	}
}

func TestSweepRowsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int32
	rows := SweepRows(Options{Ctx: ctx}, "tbl", 4, func(i int) []string {
		atomic.AddInt32(&calls, 1)
		return []string{"x"}
	})
	if calls != 0 {
		t.Errorf("fn ran %d times under a canceled context", calls)
	}
	for i, r := range rows {
		if r != nil {
			t.Errorf("point %d yielded %v, want nil", i, r)
		}
	}
}

// TestSweepRowsNilJournal: SweepRows without a journal or context is plain
// Sweep — every point computes.
func TestSweepRowsNilJournal(t *testing.T) {
	var calls int32
	rows := SweepRows(Options{}, "tbl", 3, func(i int) []string {
		atomic.AddInt32(&calls, 1)
		return []string{"y"}
	})
	if calls != 3 || len(rows) != 3 {
		t.Errorf("calls=%d rows=%d", calls, len(rows))
	}
}
