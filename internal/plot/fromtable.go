package plot

import (
	"fmt"

	"repro/internal/bench"
)

// FromTable converts a bench table into a chart when the table has a
// plottable shape: a numeric (or categorical) first column and at least one
// numeric data column, a column whose every cell is a number (see
// bench.Cell.Value). It returns false for tables that are not figures
// (validation reports, trace summaries).
func FromTable(t *bench.Table) (*Chart, bool) {
	if len(t.Rows) < 2 || len(t.Columns) < 2 {
		return nil, false
	}
	// Summary/report tables are not figures.
	if t.ID == "fig5" || t.ID == "validate" {
		return nil, false
	}
	spec := figureSpecs[t.ID]
	c := &Chart{
		Title:  fmt.Sprintf("%s: %s", t.ID, t.Title),
		XLabel: t.Columns[0],
		LogX:   spec.logX,
		Bars:   spec.bars,
	}
	xs, ok := column(t, 0)
	if !ok { // categorical: indices with labels
		c.Bars = true
		xs = make([]float64, len(t.Rows))
		c.XTickLabels = make([]string, len(t.Rows))
		for i, row := range t.Rows {
			xs[i] = float64(i)
			c.XTickLabels[i] = row[0].String()
		}
	}
	for col := 1; col < len(t.Columns); col++ {
		if ys, ok := column(t, col); ok {
			c.Series = append(c.Series, Series{Name: t.Columns[col], X: xs, Y: ys})
		}
	}
	if len(c.Series) == 0 {
		return nil, false
	}
	c.YLabel = spec.yLabel
	if c.YLabel == "" {
		c.YLabel = "value"
	}
	return c, true
}

// column returns the values of column col, or false when a cell in it is
// text or missing.
func column(t *bench.Table, col int) ([]float64, bool) {
	vs := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		if col >= len(row) {
			return nil, false
		}
		v, ok := row[col].Value()
		if !ok {
			return nil, false
		}
		vs[i] = v
	}
	return vs, true
}

// figureSpec carries per-figure presentation hints.
type figureSpec struct {
	logX   bool
	bars   bool
	yLabel string
}

var figureSpecs = map[string]figureSpec{
	"fig3a": {logX: true, yLabel: "GB/s"},
	"fig3b": {logX: true, yLabel: "% of peak"},
	"fig4":  {yLabel: "us per barrier"},
	"fig6a": {yLabel: "MUPS per PE"},
	"fig6b": {yLabel: "MUPS aggregate"},
	"fig7":  {yLabel: "GFLOPS"},
	"fig8":  {yLabel: "MTEPS"},
	"fig9":  {bars: true, yLabel: "speedup (x)"},
	"extB":  {yLabel: "cycles / fraction"},
	"extD":  {yLabel: "rate"},
}
