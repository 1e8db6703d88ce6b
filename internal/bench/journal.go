// Crash-resumable sweeps. Every simulator run of an experiment is a sweep
// point (see SweepRows), and a Journal records every completed point as one
// JSONL line in <dir>/journal.jsonl, synced before the worker moves on, so a
// killed run (SIGKILL included) loses at most the points in flight. Resuming
// re-opens the journal: finished points are returned without recomputation,
// and only the remaining runs happen. Because every point derives its
// results from its own fixed seed, a resumed run's final figures are
// byte-identical to an uninterrupted run's. Records hold cells, numbers with
// their units and unrounded values, so an experiment builds its rows from
// replayed points exactly as from fresh ones.

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
	"time"
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
}

// journalRow is a journaled sweep point and the journal line it came from (0
// for a point journaled by this process).
type journalRow struct {
	cells []Cell
	line  int
}

// journalRec is one JSONL line: point I of the sweep Table, and its cells.
// Kind is always "row".
type journalRec struct {
	Kind  string `json:"kind"`
	Table string `json:"table,omitempty"`
	I     int    `json:"i,omitempty"`
	Cells []Cell `json:"cells,omitempty"`
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
// values among them), names an unknown kind (the whole-experiment "exp"
// records of older journals among them), or holds a cell of unknown unit or
// precision fails with a *JournalError.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "journal.jsonl")
	j := &Journal{
		path: path,
		rows: make(map[string]journalRow),
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
	if rec.Kind != "row" {
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	for k, c := range rec.Cells {
		if err := c.check(); err != nil {
			return fmt.Errorf("%s point %d: cell %d: %v", rec.Table, rec.I, k, err)
		}
	}
	j.rows[rowKey(rec.Table, rec.I)] = journalRow{cells: rec.Cells, line: n}
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

// SweepRows runs the n points of the sweep key on Sweep's pool and returns
// each point's width cells in point order. A point is one simulator run (or
// one standalone drive of a switch core), and the experiment builds its rows
// from the points' cells; key is the experiment's table ID. The journal and
// cancellation come from Options. Journaled points are replayed without
// recomputation, and fresh points are journaled as they finish. Once Ctx is
// canceled the remaining points are left out and SweepRows returns nil
// (finished ones are journaled, and the driver exits with a resume hint). A
// journaled point of another width, such as a row an older build journaled
// under the same key, is rejected: the point is recomputed, and the journal
// fails with a *JournalError (see Err), so the run cannot end as if the
// journal had been sound.
func SweepRows(opt Options, key string, n, width int, fn func(i int) []Cell) [][]Cell {
	points := Sweep(opt.Jobs, n, func(i int) []Cell {
		if r, ok := opt.Journal.row(key, i); ok {
			if len(r.cells) == width {
				return r.cells
			}
			opt.Journal.fail(&JournalError{Path: opt.Journal.path, Line: r.line, Reason: fmt.Sprintf(
				"%s point %d has %d cells, not %d", key, i, len(r.cells), width)})
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil
		}
		start := time.Now()
		cells := fn(i)
		opt.Walls.add(key, i, time.Since(start))
		opt.Journal.PutRow(key, i, cells)
		return cells
	})
	for _, p := range points {
		if p == nil {
			return nil
		}
	}
	return points
}

// Walls records the host wall time of the sweep points one experiment
// computes; a journaled point replays without running and is not counted.
// It is safe for the concurrent points of a -jobs sweep.
type Walls struct {
	mu      sync.Mutex
	points  int
	longest string        // the longest point, as key[i]
	max     time.Duration // its wall time
}

func (w *Walls) add(key string, i int, d time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.points++
	if w.longest == "" || d > w.max {
		w.longest, w.max = fmt.Sprintf("%s[%d]", key, i), d
	}
}

// Line formats one experiment's wall line: its wall seconds, the points it
// computed, and the longest point with its seconds.
func (w *Walls) Line(exp string, wall time.Duration) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	longest := "none"
	if w.points > 0 {
		longest = fmt.Sprintf("%s %.3f s", w.longest, w.max.Seconds())
	}
	return fmt.Sprintf("wall: %s %.3f s, %d points, longest %s", exp, wall.Seconds(), w.points, longest)
}
