// Package bench regenerates every table and figure of the paper's
// evaluation (§V–§VII) plus the extension studies DESIGN.md lists. Each
// experiment is a function returning a Table of the same rows/series the
// paper plots; cmd/dvbench and the repository's bench_test.go both drive
// these runners.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string // e.g. "fig6a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records the paper-vs-measured comparison for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteJSON emits the table as a JSON object (machine-readable artifact for
// downstream plotting).
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, t.Rows, t.Notes})
}

// WriteAllJSON emits a list of tables as one JSON array.
func WriteAllJSON(w io.Writer, tables []*Table) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if err := t.WriteJSON(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Options scales experiment sizes.
type Options struct {
	// Small shrinks problem sizes and node sweeps for fast smoke runs.
	Small bool
	// Jobs bounds the worker pool that independent sweep points fan out
	// over (see Sweep). 0 or 1 means serial; values above runtime.NumCPU()
	// are clamped. Results are identical at any setting.
	Jobs int
	// Journal, when non-nil, makes sweeps crash-resumable: each completed
	// point and experiment is persisted before moving on, and a re-run with
	// the same journal recomputes only what is missing (see Journal).
	Journal *Journal
	// Ctx, when non-nil, cancels sweeps cooperatively: once done, workers
	// stop starting new points (in-flight points finish and are journaled).
	Ctx context.Context
}

// nodeSweep returns the node counts of the paper's scaling figures.
func (o Options) nodeSweep(start int) []int {
	if o.Small {
		if start < 4 {
			return []int{2, 8}
		}
		return []int{4, 8}
	}
	var out []int
	for n := start; n <= 32; n *= 2 {
		out = append(out, n)
	}
	return out
}
