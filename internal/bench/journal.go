// Crash-resumable sweeps. A Journal records every completed sweep point and
// every completed experiment as one JSONL line in <dir>/journal.jsonl,
// synced before the worker moves on, so a killed run (SIGKILL included)
// loses at most the point in flight. Resuming re-opens the journal: finished
// experiments are replayed from their stored tables, finished points are
// returned without recomputation, and only the remaining work runs. Because
// every sweep point derives its results from its own fixed seed, a resumed
// run's final figures are byte-identical to an uninterrupted run's.

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the durable sweep log. All methods are safe for concurrent use
// by Sweep workers and are no-ops on a nil receiver, so callers thread an
// optional journal without guards.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	err  error
	rows map[string][]string
	exps map[string][]*Table
}

// journalRec is one JSONL line: a completed sweep point ("row") or a
// completed experiment with all its tables ("exp").
type journalRec struct {
	Kind  string   `json:"kind"`
	Table string   `json:"table,omitempty"`
	I     int      `json:"i,omitempty"`
	Cells []string `json:"cells,omitempty"`
	Exp   string   `json:"exp,omitempty"`
	Full2 []*Table `json:"tables,omitempty"`
}

// OpenJournal opens (creating if needed) the journal in dir and loads every
// record already present. A torn final line — the signature of a kill mid-
// append — is ignored, not an error.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "journal.jsonl")
	j := &Journal{
		rows: make(map[string][]string),
		exps: make(map[string][]*Table),
	}
	if b, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(b, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			var rec journalRec
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			switch rec.Kind {
			case "row":
				j.rows[rowKey(rec.Table, rec.I)] = rec.Cells
			case "exp":
				j.exps[rec.Exp] = rec.Full2
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
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

// Row returns the journaled cells of sweep point i of the given table.
func (j *Journal) Row(table string, i int) ([]string, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cells, ok := j.rows[rowKey(table, i)]
	return cells, ok
}

// PutRow journals one completed sweep point.
func (j *Journal) PutRow(table string, i int, cells []string) {
	if j == nil {
		return
	}
	j.append(journalRec{Kind: "row", Table: table, I: i, Cells: cells})
	j.mu.Lock()
	j.rows[rowKey(table, i)] = cells
	j.mu.Unlock()
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

// SweepRows is Sweep for row-producing experiment sweeps, threading the
// journal and cancellation from Options: journaled points are returned
// without recomputation, fresh points are journaled as they finish, and
// once Ctx is canceled the remaining points yield nil rows (callers skip
// them and the driver exits with a resume hint).
func SweepRows(opt Options, table string, n int, fn func(i int) []string) [][]string {
	return Sweep(opt.Jobs, n, func(i int) []string {
		if cells, ok := opt.Journal.Row(table, i); ok {
			return cells
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil
		}
		cells := fn(i)
		opt.Journal.PutRow(table, i, cells)
		return cells
	})
}
