// Package plot renders the reproduction's figures as standalone SVG images
// using only the standard library: line charts for the scaling figures
// (bandwidth/latency/rate versus size or node count) and grouped bar charts
// for the speedup figure. dvbench -svg drives it from the tables a run produced.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one plotted line or bar group member.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart describes one figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogX uses a log2 x axis (message-size sweeps).
	LogX bool
	// Bars renders grouped bars per x position instead of lines.
	Bars bool
	// XTickLabels overrides numeric x tick labels (categorical bars).
	XTickLabels []string
}

// palette holds the series colours (colour-blind-safe-ish).
var palette = []string{"#1b6ca8", "#d1495b", "#66a182", "#edae49", "#574ae2", "#8d6a9f"}

const (
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 55
)

// RenderSVG writes the chart as a complete SVG document.
func (c *Chart) RenderSVG(w io.Writer, width, height int) error {
	if len(c.Series) == 0 {
		return fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	b := &strings.Builder{}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		marginL, xmlEscape(c.Title))

	plotW := width - marginL - marginR
	plotH := height - marginT - marginB

	xmin, xmax, ymin, ymax := c.bounds()
	xmap := func(x float64) float64 {
		if c.LogX {
			x = math.Log2(x)
		}
		lo, hi := xmin, xmax
		if c.LogX {
			lo, hi = math.Log2(xmin), math.Log2(xmax)
		}
		if hi == lo {
			return float64(marginL) + float64(plotW)/2
		}
		return float64(marginL) + (x-lo)/(hi-lo)*float64(plotW)
	}
	ymap := func(y float64) float64 {
		if ymax == ymin {
			return float64(marginT) + float64(plotH)/2
		}
		return float64(marginT+plotH) - (y-ymin)/(ymax-ymin)*float64(plotH)
	}

	// Axes.
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH)

	// Y ticks and gridlines.
	for _, tick := range niceTicks(ymin, ymax, 6) {
		y := ymap(tick)
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n",
			marginL, y, marginL+plotW, y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, formatTick(tick))
	}
	// X ticks.
	xs := c.xPositions()
	for i, x := range xs {
		px := xmap(x)
		label := formatTick(x)
		if c.XTickLabels != nil && i < len(c.XTickLabels) {
			label = c.XTickLabels[i]
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
			px, marginT+plotH, px, marginT+plotH+4)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px, marginT+plotH+18, xmlEscape(label))
	}
	// Axis labels.
	fmt.Fprintf(b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginL+plotW/2, height-12, xmlEscape(c.XLabel))
	fmt.Fprintf(b, `<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		marginT+plotH/2, marginT+plotH/2, xmlEscape(c.YLabel))

	if c.Bars {
		c.renderBars(b, xmap, ymap, plotW)
	} else {
		c.renderLines(b, xmap, ymap)
	}

	// Legend.
	lx := marginL + 10
	for i, s := range c.Series {
		ly := marginT + 8 + i*16
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="8" fill="%s"/>`+"\n",
			lx, ly, palette[i%len(palette)])
		fmt.Fprintf(b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+16, ly+8, xmlEscape(s.Name))
	}
	fmt.Fprintln(b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

func (c *Chart) renderLines(b *strings.Builder, xmap, ymap func(float64) float64) {
	for i, s := range c.Series {
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xmap(s.X[j]), ymap(s.Y[j])))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), palette[i%len(palette)])
		for j := range s.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				xmap(s.X[j]), ymap(s.Y[j]), palette[i%len(palette)])
		}
	}
}

func (c *Chart) renderBars(b *strings.Builder, xmap, ymap func(float64) float64, plotW int) {
	xs := c.xPositions()
	if len(xs) == 0 {
		return
	}
	slot := float64(plotW) / float64(len(xs))
	group := slot * 0.7
	bar := group / float64(len(c.Series))
	y0 := ymap(math.Max(0, c.minY()))
	for i, s := range c.Series {
		for j := range s.X {
			cx := xmap(s.X[j])
			x := cx - group/2 + float64(i)*bar
			y := ymap(s.Y[j])
			h := y0 - y
			if h < 0 {
				y, h = y0, -h
			}
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, y, bar*0.9, h, palette[i%len(palette)])
		}
	}
}

// bounds computes the data extents (y always includes 0 for honest scaling).
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), 0
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymax = math.Max(ymax, s.Y[i])
			ymin = math.Min(ymin, s.Y[i])
		}
	}
	if ymin > 0 {
		ymin = 0
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	return
}

func (c *Chart) minY() float64 {
	_, _, ymin, _ := c.bounds()
	return ymin
}

// xPositions returns the distinct x values in order of first appearance.
func (c *Chart) xPositions() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range c.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// niceTicks returns up to n round tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo {
		return []float64{lo}
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var ticks []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e6; t += step {
		ticks = append(ticks, t)
	}
	return ticks
}

func formatTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
