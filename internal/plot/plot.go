// Package plot renders the experiment series as standalone SVG files,
// so cmd/qabench can regenerate the paper's figures as images, not
// just console tables. It is a deliberately small chart kit: line
// charts (figures 3, 5, 6) and grouped bar charts (figures 4, 7), pure
// standard library.
package plot

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Series is one named line or bar group.
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
	// Width/Height of the SVG canvas in pixels (defaults 720×420).
	Width, Height int
	// LogX plots the x axis on a log10 scale (used by figure 6's
	// inter-arrival sweep).
	LogX bool
}

// palette holds distinguishable stroke colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf",
}

const (
	marginLeft   = 64.0
	marginRight  = 24.0
	marginTop    = 40.0
	marginBottom = 48.0
)

func (c *Chart) dims() (w, h float64) {
	if c.Width <= 0 {
		c.Width = 720
	}
	if c.Height <= 0 {
		c.Height = 420
	}
	return float64(c.Width), float64(c.Height)
}

// render draws the chart as a line plot with markers or, with bars, as
// a grouped bar plot: each series contributes one bar per x position,
// and x values are treated as category indices.
func (c *Chart) render(bars bool) (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x vs %d y", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q is empty", s.Name)
		}
	}
	w, h := c.dims()
	minX, maxX, minY, maxY := c.bounds(bars)
	plotW := w - marginLeft - marginRight
	plotH := h - marginTop - marginBottom
	xpos := func(x float64) float64 {
		if c.LogX {
			x = math.Log10(math.Max(x, 1e-9))
		}
		if maxX == minX {
			return marginLeft + plotW/2
		}
		return marginLeft + (x-minX)/(maxX-minX)*plotW
	}
	ypos := func(y float64) float64 {
		if maxY == minY {
			return marginTop + plotH/2
		}
		return marginTop + plotH - (y-minY)/(maxY-minY)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		c.Width, c.Height, c.Width, c.Height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%g" y="24" font-family="sans-serif" font-size="16" font-weight="bold">%s</text>`+"\n",
		marginLeft, escape(c.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	// Y ticks (5).
	for i := 0; i <= 4; i++ {
		v := minY + (maxY-minY)*float64(i)/4
		y := ypos(v)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n",
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+4, ticks(v))
	}
	// X ticks from first series.
	ref := c.Series[0]
	step := 1
	if len(ref.X) > 10 {
		step = len(ref.X) / 10
	}
	for i := 0; i < len(ref.X); i += step {
		x := xpos(ref.X[i])
		if bars {
			x = marginLeft + (float64(i)+0.5)/float64(len(ref.X))*plotW
		}
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, marginTop+plotH+16, ticks(ref.X[i]))
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginLeft+plotW/2, h-8, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	if bars {
		c.renderBars(&b, plotW, plotH, ypos, minY)
	} else {
		c.renderLines(&b, xpos, ypos)
	}

	// Legend.
	lx := marginLeft + 8
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		y := marginTop + 10 + float64(si)*16
		fmt.Fprintf(&b, `<rect x="%g" y="%g" width="10" height="10" fill="%s"/>`+"\n", lx, y-9, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+14, y, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func (c *Chart) renderLines(b *strings.Builder, xpos, ypos func(float64) float64) {
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var path strings.Builder
		for i := range s.X {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xpos(s.X[i]), ypos(s.Y[i]))
		}
		fmt.Fprintf(b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
			strings.TrimSpace(path.String()), color)
		for i := range s.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.4" fill="%s"/>`+"\n",
				xpos(s.X[i]), ypos(s.Y[i]), color)
		}
	}
}

func (c *Chart) renderBars(b *strings.Builder, plotW, plotH float64, ypos func(float64) float64, minY float64) {
	n := len(c.Series[0].X)
	groups := float64(n)
	groupW := plotW / groups
	barW := groupW * 0.8 / float64(len(c.Series))
	base := ypos(math.Max(minY, 0))
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		for i := range s.X {
			x := marginLeft + float64(i)*groupW + groupW*0.1 + float64(si)*barW
			y := ypos(s.Y[i])
			top, height := y, base-y
			if height < 0 {
				top, height = base, -height
			}
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, top, barW*0.92, height, color)
		}
	}
}

func (c *Chart) bounds(bars bool) (minX, maxX, minY, maxY float64) {
	minX, maxX = math.Inf(1), math.Inf(-1)
	minY, maxY = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				x = math.Log10(math.Max(x, 1e-9))
			}
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if bars {
		minY = math.Min(minY, 0)
	}
	if minY == maxY {
		maxY = minY + 1
	}
	// A little headroom on top.
	maxY += (maxY - minY) * 0.05
	return minX, maxX, minY, maxY
}

// WriteFile renders the chart (line or bars) to path.
func (c *Chart) WriteFile(path string, bars bool) error {
	svg, err := c.render(bars)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(svg), 0o644)
}

// IntSeries converts a bucketed integer series to a Series with x =
// bucket index scaled by step.
func IntSeries(name string, values []int, xStep float64) Series {
	s := Series{Name: name, X: make([]float64, len(values)), Y: make([]float64, len(values))}
	for i, v := range values {
		s.X[i] = float64(i) * xStep
		s.Y[i] = float64(v)
	}
	return s
}

// MapSeries converts a name→value map into a single bar series over
// sorted keys, returning the category labels alongside.
func MapSeries(name string, m map[string]float64) (Series, []string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := Series{Name: name, X: make([]float64, len(keys)), Y: make([]float64, len(keys))}
	for i, k := range keys {
		s.X[i] = float64(i)
		s.Y[i] = m[k]
	}
	return s, keys
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

func ticks(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
