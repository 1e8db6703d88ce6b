package plot

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

func lineChart() *Chart {
	return &Chart{
		Title: "test", XLabel: "nodes", YLabel: "rate",
		Series: []Series{
			{Name: "a", X: []float64{2, 4, 8}, Y: []float64{1, 2, 4}},
			{Name: "b", X: []float64{2, 4, 8}, Y: []float64{1, 1.5, 2}},
		},
	}
}

func TestRenderSVGWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := lineChart().RenderSVG(&buf, 640, 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v\n%s", err, out)
		}
	}
	if c := strings.Count(out, "<polyline"); c != 2 {
		t.Fatalf("expected 2 polylines, got %d", c)
	}
	for _, want := range []string{"nodes", "rate", "test", "<circle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in SVG", want)
		}
	}
}

func TestRenderBars(t *testing.T) {
	c := lineChart()
	c.Bars = true
	c.XTickLabels = []string{"x", "y", "z"}
	var buf bytes.Buffer
	if err := c.RenderSVG(&buf, 640, 400); err != nil {
		t.Fatal(err)
	}
	// 2 series × 3 positions = 6 bars (plus the background rect and legend
	// swatches: 1 + 2).
	if got := strings.Count(buf.String(), "<rect"); got != 6+3 {
		t.Fatalf("expected 9 rects, got %d", got)
	}
}

func TestLogXMonotonic(t *testing.T) {
	c := &Chart{
		Title: "log", LogX: true,
		Series: []Series{{Name: "s", X: []float64{1, 4, 16, 64}, Y: []float64{1, 2, 3, 4}}},
	}
	var buf bytes.Buffer
	if err := c.RenderSVG(&buf, 640, 400); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyChartErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Chart{Title: "empty"}).RenderSVG(&buf, 100, 100); err == nil {
		t.Fatal("expected error")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 100, 6)
	if len(ticks) < 4 || ticks[0] != 0 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("non-monotonic ticks: %v", ticks)
		}
	}
}

func TestFromTableLineFigure(t *testing.T) {
	tb := &bench.Table{ID: "fig6a", Title: "GUPS per PE",
		Columns: []string{"nodes", "Data Vortex", "Infiniband"}}
	tb.AddRow(bench.Int(4), bench.Num(35.95, 2, bench.None), bench.Num(31.16, 2, bench.None))
	tb.AddRow(bench.Int(32), bench.Num(33.5, 2, bench.None), bench.Num(13.749, 2, bench.None))
	c, ok := FromTable(tb)
	if !ok {
		t.Fatal("figure not plottable")
	}
	if len(c.Series) != 2 || c.Bars {
		t.Fatalf("chart: %+v", c)
	}
	if c.Series[1].Y[1] != 13.75 { // the value as printed, not as measured
		t.Fatalf("series data: %+v", c.Series[1])
	}
}

func TestFromTableCategoricalBars(t *testing.T) {
	tb := &bench.Table{ID: "fig9", Title: "speedup",
		Columns: []string{"application", "DV time", "IB time", "speedup"}}
	tb.AddRow(bench.Text("SNAP"), bench.Dur(791*sim.Microsecond), bench.Dur(2128*sim.Microsecond), bench.Num(1.21, 2, bench.Ratio))
	tb.AddRow(bench.Text("Heat"), bench.Dur(36900*sim.Nanosecond), bench.Dur(91900*sim.Nanosecond), bench.Num(2.49, 2, bench.Ratio))
	c, ok := FromTable(tb)
	if !ok {
		t.Fatal("not plottable")
	}
	if !c.Bars || c.XTickLabels[0] != "SNAP" {
		t.Fatalf("chart: %+v", c)
	}
	// Durations plot in microseconds, whatever unit they print in.
	if y := c.Series[1].Y; y[0] != 2128 || y[1] != 91.9 {
		t.Fatalf("IB time series: %v", y)
	}
}

// TestFromTableReadsUnitsNotSuffixes: a rate whose unit ends in "s" plots as
// its value (not as seconds scaled to microseconds), and a geometry that
// starts with a digit is text, not a series.
func TestFromTableReadsUnitsNotSuffixes(t *testing.T) {
	tb := &bench.Table{ID: "extK", Title: "sort",
		Columns: []string{"nodes", "switch", "Data Vortex"}}
	tb.AddRow(bench.Int(4), bench.Text("2x4/C2"), bench.Num(155.04, 1, bench.MkeysPerSec))
	tb.AddRow(bench.Int(8), bench.Text("4x4/C3"), bench.Num(98.7, 1, bench.MkeysPerSec))
	c, ok := FromTable(tb)
	if !ok {
		t.Fatal("not plottable")
	}
	if len(c.Series) != 1 || c.Series[0].Name != "Data Vortex" || c.Series[0].Y[0] != 155 {
		t.Fatalf("series: %+v", c.Series)
	}
}

func TestFromTableRejectsNonNumeric(t *testing.T) {
	tb := &bench.Table{ID: "validate", Title: "checks",
		Columns: []string{"workload", "check", "result"}}
	tb.AddRow(bench.Text("GUPS"), bench.Text("tables equal"), bench.Text("PASS"))
	tb.AddRow(bench.Text("FFT"), bench.Text("spectrum"), bench.Text("PASS"))
	if _, ok := FromTable(tb); ok {
		t.Fatal("validation table should not be plottable")
	}
}
