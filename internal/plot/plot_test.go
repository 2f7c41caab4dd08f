package plot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lineChart() *Chart {
	return &Chart{
		Title:  "Test figure",
		XLabel: "x axis",
		YLabel: "y axis",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2, 3}, Y: []float64{1, 3, 2, 4}},
			{Name: "b", X: []float64{0, 1, 2, 3}, Y: []float64{2, 2, 2, 2}},
		},
	}
}

func TestLineSVGWellFormed(t *testing.T) {
	svg, err := lineChart().render(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "Test figure", "x axis", "y axis",
		"<path", "<circle", ">a</text>", ">b</text>",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<svg") != 1 {
		t.Error("multiple svg roots")
	}
}

func TestBarsSVGWellFormed(t *testing.T) {
	c := lineChart()
	svg, err := c.render(true)
	if err != nil {
		t.Fatal(err)
	}
	// 2 series × 4 categories = 8 bars (plus the background and legend
	// rects).
	if got := strings.Count(svg, "<rect"); got < 8 {
		t.Errorf("bars = %d rects, want >= 8", got)
	}
}

func TestEmptyChartRejected(t *testing.T) {
	c := &Chart{Title: "empty"}
	if _, err := c.render(false); err == nil {
		t.Error("empty chart rendered")
	}
	bad := &Chart{Series: []Series{{Name: "x", X: []float64{1}, Y: nil}}}
	if _, err := bad.render(false); err == nil {
		t.Error("mismatched series rendered")
	}
	empty := &Chart{Series: []Series{{Name: "x"}}}
	if _, err := empty.render(false); err == nil {
		t.Error("zero-length series rendered")
	}
}

func TestLogXMonotone(t *testing.T) {
	c := &Chart{
		LogX: true,
		Series: []Series{
			{Name: "sweep", X: []float64{10, 100, 1000, 10000}, Y: []float64{1, 1.1, 1.2, 1.0}},
		},
	}
	svg, err := c.render(false)
	if err != nil {
		t.Fatal(err)
	}
	// On a log axis the circle x positions must be evenly spaced; on a
	// linear axis they would bunch at the left. Check spacing between
	// consecutive markers is near-constant.
	xs := circleXs(t, svg)
	if len(xs) != 4 {
		t.Fatalf("markers = %d", len(xs))
	}
	d1 := xs[1] - xs[0]
	d2 := xs[2] - xs[1]
	d3 := xs[3] - xs[2]
	if !near(d1, d2, 1) || !near(d2, d3, 1) {
		t.Errorf("log spacing uneven: %v", xs)
	}
}

func circleXs(t *testing.T, svg string) []float64 {
	t.Helper()
	var xs []float64
	for _, line := range strings.Split(svg, "\n") {
		if !strings.HasPrefix(line, "<circle") {
			continue
		}
		var cx, cy, r float64
		if _, err := fmt.Sscanf(line, `<circle cx="%f" cy="%f" r="%f"`, &cx, &cy, &r); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		xs = append(xs, cx)
	}
	return xs
}

func near(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig.svg")
	if err := lineChart().WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("file does not start with <svg")
	}
}

func TestIntSeries(t *testing.T) {
	s := IntSeries("arrivals", []int{1, 2, 3}, 0.5)
	if s.X[2] != 1.0 || s.Y[2] != 3 {
		t.Errorf("IntSeries = %+v", s)
	}
}

func TestMapSeries(t *testing.T) {
	s, keys := MapSeries("norm", map[string]float64{"b": 2, "a": 1})
	if keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v", keys)
	}
	if s.Y[0] != 1 || s.Y[1] != 2 {
		t.Errorf("values = %v", s.Y)
	}
}

func TestEscape(t *testing.T) {
	c := lineChart()
	c.Title = `<script>&`
	svg, err := c.render(false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "&lt;script&gt;&amp;") {
		t.Error("escaped form missing")
	}
}
