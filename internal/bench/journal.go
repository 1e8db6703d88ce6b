// Crash-resumable sweeps. A Journal records every completed sweep point and
// every completed experiment as one JSONL line in <dir>/journal.jsonl,
// synced before the worker moves on, so a killed run (SIGKILL included)
// loses at most the point in flight. Resuming re-opens the journal: finished
// experiments are replayed from their stored tables, finished points are
// returned without recomputation, and only the remaining work runs. Because
// every sweep point derives its results from its own fixed seed, a resumed
// run's final figures are byte-identical to an uninterrupted run's. Records
// hold cells, numbers with their units, so a replayed table prints and plots
// from the values it was built with.

package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
)

// Journal is the durable sweep log. All methods are safe for concurrent use
// by Sweep workers and are no-ops on a nil receiver, so callers thread an
// optional journal without guards.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	err  error
	rows map[string]journalRow
	exps map[string][]*Table
}

// journalRow is a journaled sweep point and the journal line it came from (0
// for a point journaled by this process).
type journalRow struct {
	cells []Cell
	line  int
}

// journalRec is one JSONL line: a completed sweep point ("row") or a
// completed experiment with all its tables ("exp").
type journalRec struct {
	Kind  string   `json:"kind"`
	Table string   `json:"table,omitempty"`
	I     int      `json:"i,omitempty"`
	Cells []Cell   `json:"cells,omitempty"`
	Exp   string   `json:"exp,omitempty"`
	Full2 []*Table `json:"tables,omitempty"`
}

// JournalError reports a journal that cannot be resumed from: the line that
// is wrong and why. Resuming never replays part of a bad journal.
type JournalError struct {
	Path   string
	Line   int // 1-based; 0 when the record was written by this process
	Reason string
}

// Error implements error.
func (e *JournalError) Error() string {
	return fmt.Sprintf("journal %s line %d: %s", e.Path, e.Line, e.Reason)
}

// OpenJournal opens (creating if needed) the journal in dir and loads every
// record already present. A torn final line — the signature of a kill
// mid-append: no newline ends it — is dropped from the file, not an error.
// Any other line that does not parse (a line from before cells carried
// values among them), names an unknown kind, or holds a row or table that
// cannot be printed (a nil table, a row whose width differs from its
// columns, a cell of unknown unit or precision) fails with a *JournalError.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "journal.jsonl")
	j := &Journal{
		path: path,
		rows: make(map[string]journalRow),
		exps: make(map[string][]*Table),
	}
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	lines := bytes.Split(b, []byte{'\n'})
	if torn := lines[len(lines)-1]; len(torn) > 0 {
		// Appends go after the last complete line, not onto the fragment.
		if err := os.Truncate(path, int64(len(b)-len(torn))); err != nil {
			return nil, err
		}
	}
	for n, line := range lines[:len(lines)-1] {
		if len(line) == 0 {
			continue
		}
		if err := j.load(line, n+1); err != nil {
			return nil, &JournalError{Path: path, Line: n + 1, Reason: err.Error()}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// load adds complete journal line n, or says what is wrong with it.
func (j *Journal) load(line []byte, n int) error {
	var rec journalRec
	if err := json.Unmarshal(line, &rec); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Value == "string" && te.Type == reflect.TypeOf(Cell{}) {
			return errors.New("holds cells as text: it was written before cells carried values, so rerun without -resume")
		}
		return fmt.Errorf("does not parse: %v", err)
	}
	switch rec.Kind {
	case "row":
		if err := checkCells(rec.Cells); err != nil {
			return fmt.Errorf("%s point %d: %v", rec.Table, rec.I, err)
		}
		j.rows[rowKey(rec.Table, rec.I)] = journalRow{cells: rec.Cells, line: n}
	case "exp":
		for i, t := range rec.Full2 {
			if t == nil {
				return fmt.Errorf("experiment %q table %d is null", rec.Exp, i)
			}
			for r, row := range t.Rows {
				if len(row) != len(t.Columns) {
					return fmt.Errorf("experiment %q table %q row %d has %d cells for %d columns",
						rec.Exp, t.ID, r, len(row), len(t.Columns))
				}
				if err := checkCells(row); err != nil {
					return fmt.Errorf("experiment %q table %q row %d: %v", rec.Exp, t.ID, r, err)
				}
			}
		}
		j.exps[rec.Exp] = rec.Full2
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// checkCells says why a journaled row cannot be printed.
func checkCells(cells []Cell) error {
	for k, c := range cells {
		if err := c.check(); err != nil {
			return fmt.Errorf("cell %d: %v", k, err)
		}
	}
	return nil
}

func rowKey(table string, i int) string { return fmt.Sprintf("%s\x00%d", table, i) }

// append writes one record and syncs so a SIGKILL after return cannot lose
// it. The first write error sticks (see Err); later appends are dropped
// rather than interleaving partial lines.
func (j *Journal) append(rec journalRec) {
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("bench: unmarshalable journal record: %v", err))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		j.err = err
		return
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
	}
}

// row returns the journaled sweep point i of the given table.
func (j *Journal) row(table string, i int) (journalRow, bool) {
	if j == nil {
		return journalRow{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.rows[rowKey(table, i)]
	return r, ok
}

// PutRow journals one completed sweep point.
func (j *Journal) PutRow(table string, i int, cells []Cell) {
	if j == nil {
		return
	}
	j.append(journalRec{Kind: "row", Table: table, I: i, Cells: cells})
	j.mu.Lock()
	j.rows[rowKey(table, i)] = journalRow{cells: cells}
	j.mu.Unlock()
}

// fail makes err the journal's sticky error (see Err) unless one is set.
func (j *Journal) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// Experiment returns the journaled tables of a completed experiment.
func (j *Journal) Experiment(id string) ([]*Table, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ts, ok := j.exps[id]
	return ts, ok
}

// PutExperiment journals an experiment's complete output; on resume the
// stored tables are replayed verbatim instead of re-running it.
func (j *Journal) PutExperiment(id string, ts []*Table) {
	if j == nil {
		return
	}
	j.append(journalRec{Kind: "exp", Exp: id, Full2: ts})
	j.mu.Lock()
	j.exps[id] = ts
	j.mu.Unlock()
}

// Err returns the first write error, if any; a journal that cannot persist
// must not be trusted for resume.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// SweepRows is Sweep for the row-producing sweep that fills t: point i's
// row is appended in point order, and the journal and cancellation come from
// Options. Journaled points are replayed without recomputation, fresh points
// are journaled as they finish, and once Ctx is canceled the remaining
// points are left out (finished ones are journaled, and the driver exits
// with a resume hint). A journaled point whose width is not t's is rejected:
// the point is recomputed, and the journal fails with a *JournalError (see
// Err), so the run cannot end as if the journal had been sound.
func SweepRows(opt Options, t *Table, n int, fn func(i int) []Cell) {
	table := t.ID
	rows := Sweep(opt.Jobs, n, func(i int) []Cell {
		if r, ok := opt.Journal.row(table, i); ok {
			if len(r.cells) == len(t.Columns) {
				return r.cells
			}
			opt.Journal.fail(&JournalError{Path: opt.Journal.path, Line: r.line, Reason: fmt.Sprintf(
				"%s point %d has %d cells for %d columns", table, i, len(r.cells), len(t.Columns))})
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil
		}
		cells := fn(i)
		opt.Journal.PutRow(table, i, cells)
		return cells
	})
	for _, r := range rows {
		if r != nil {
			t.AddRow(r...)
		}
	}
}
