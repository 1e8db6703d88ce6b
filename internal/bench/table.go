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
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string // e.g. "fig6a"
	Title   string
	Columns []string
	Rows    [][]Cell
	// Notes records the paper-vs-measured comparison for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Cell is one table entry: text, or a number that carries the unit and the
// precision it prints with. A cell whose Text is empty is a number. String
// is the one place a table number becomes text; Value hands the number to
// readers (plot, tests) without parsing anything.
type Cell struct {
	Text string  `json:"text,omitempty"`
	V    float64 `json:"v,omitempty"`
	Unit Unit    `json:"unit,omitempty"`
	Prec int     `json:"prec,omitempty"` // decimal places; a Duration picks its own
}

// Unit says what a number cell counts and what prints after it.
type Unit string

// The units a number cell can carry.
const (
	None        Unit = ""
	Percent     Unit = "%"
	Ratio       Unit = "x" // a speedup or slowdown
	Micros      Unit = "us"
	MkeysPerSec Unit = " Mkeys/s"
	Sci         Unit = "e"        // a plain number in exponent notation: 1e-03
	Duration    Unit = "duration" // V is virtual picoseconds, printed as sim.Time prints them
)

// maxPrec bounds a cell's decimal places; a journaled cell past it is refused.
const maxPrec = 9

// Text is a text cell.
func Text(s string) Cell { return Cell{Text: s} }

// Num is a number printed at prec decimal places and followed by u. A value
// that is not finite becomes the text it prints as: JSON, and so the
// journal, cannot carry it as a number.
func Num(v float64, prec int, u Unit) Cell {
	c := Cell{V: v, Unit: u, Prec: prec}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Text(c.String())
	}
	return c
}

// Int is a whole number.
func Int[T ~int | ~int64](n T) Cell { return Cell{V: float64(n)} }

// Dur is a span of virtual time.
func Dur(t sim.Time) Cell { return Cell{V: float64(t), Unit: Duration} }

// String renders the cell: text as it is, a number at its precision followed
// by its unit.
func (c Cell) String() string {
	if c.Text != "" {
		return c.Text
	}
	v, prec, suffix := c.scaled()
	if c.Unit == Sci {
		return strconv.FormatFloat(v, 'e', prec, 64)
	}
	return strconv.FormatFloat(v, 'f', prec, 64) + suffix
}

// Value returns a number cell's value as it prints, rounded to its
// precision, with a Duration in microseconds. ok is false for a text cell.
func (c Cell) Value() (v float64, ok bool) {
	if c.Text != "" {
		return 0, false
	}
	v, prec, _ := c.scaled()
	if c.Unit == Sci && v != 0 {
		prec -= int(math.Floor(math.Log10(math.Abs(v)))) // places of the leading digit
	}
	v = round(v, prec)
	if c.Unit == Duration {
		if u, _ := sim.Time(c.V).Unit(); u < sim.Microsecond {
			v /= float64(sim.Microsecond / u)
		} else {
			v *= float64(u / sim.Microsecond)
		}
	}
	return v, true
}

// scaled returns the number as it prints, its decimal places and what
// follows it. A Duration is in the unit sim.Time.Unit picks, at three places
// (whole picoseconds), as sim.Time.String prints it.
func (c Cell) scaled() (v float64, prec int, suffix string) {
	if c.Unit != Duration {
		return c.V, c.Prec, string(c.Unit)
	}
	u, suffix := sim.Time(c.V).Unit()
	if u == sim.Picosecond {
		return c.V, 0, suffix
	}
	return c.V / float64(u), 3, suffix
}

// round returns x at places decimals as the nearest float64 to the decimal
// strconv prints for it: x·10^places exactly, rounded half to even. A
// negative places rounds to a multiple of 10^-places.
func round(x float64, places int) float64 {
	if places < 0 {
		s := math.Pow10(-places)
		k := math.RoundToEven(x / s)
		// x - k·s is exact, so it says which side of a half x is on.
		switch r := math.FMA(-k, s, x); {
		case 2*r > s || 2*r == s && math.Mod(k, 2) != 0:
			k++
		case 2*r < -s || 2*r == -s && math.Mod(k, 2) != 0:
			k--
		}
		return k * s
	}
	s := math.Pow10(places)
	hi := x * s
	lo := math.FMA(x, s, -hi) // x·s == hi+lo exactly
	k := math.RoundToEven(hi)
	// hi can sit on a half only by rounding; lo says which side x·s is on.
	switch d := hi - k; {
	case d == 0.5 && lo > 0:
		k++
	case d == -0.5 && lo < 0:
		k--
	}
	return k / s
}

// check says why a cell read from disk cannot be printed.
func (c Cell) check() error {
	switch c.Unit {
	case None, Percent, Ratio, Micros, MkeysPerSec, Sci, Duration:
	default:
		return fmt.Errorf("unknown unit %q", c.Unit)
	}
	if c.Prec < 0 || c.Prec > maxPrec {
		return fmt.Errorf("precision %d outside 0..%d", c.Prec, maxPrec)
	}
	return nil
}

// text renders every row through Cell.String.
func (t *Table) text() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = make([]string, len(r))
		for j, c := range r {
			rows[i][j] = c.String()
		}
	}
	return rows
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	rows := t.text()
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range rows {
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
	for _, r := range rows {
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

// WriteAllJSON emits the tables as one JSON array of objects, each cell as
// the text it prints (machine-readable artifact for downstream plotting).
func WriteAllJSON(w io.Writer, tables []*Table) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if err := enc.Encode(struct {
			ID      string     `json:"id"`
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
			Notes   []string   `json:"notes,omitempty"`
		}{t.ID, t.Title, t.Columns, t.text(), t.Notes}); err != nil {
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
	// point (one simulator run) is persisted before moving on, and a re-run
	// with the same journal recomputes only what is missing (see Journal).
	Journal *Journal
	// Ctx, when non-nil, cancels sweeps cooperatively: once done, workers
	// stop starting new points (in-flight points finish and are journaled).
	Ctx context.Context
	// Walls, when non-nil, records the host wall time of every point
	// SweepRows computes (dvbench's per-experiment stderr line).
	Walls *Walls
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
