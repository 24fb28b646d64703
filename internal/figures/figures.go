// Package figures regenerates every table and figure of the paper's
// evaluation as plain data (series of points or rows of cells). The same
// generators back the cmd/experiments binary, experiments_output.txt and
// EXPERIMENTS.md: one generator per paper exhibit, named after it.
package figures

import (
	"fmt"
	"strings"
)

// Series is one named curve: y(x) over the sweep variable.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one regenerated paper figure.
type Figure struct {
	ID     string // e.g. "Fig 4a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// Table is one regenerated paper table (or scalar-results exhibit).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the figure's series as aligned text columns.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  series %q:\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "    %12.6g  %14.8g\n", s.X[i], s.Y[i])
		}
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Notes)
	}
	return b.String()
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Text lays out one exhibit's blocks as experiments_output.txt records them:
// each block's text and a newline, then a 72-dash rule. plot charts figures.
func Text(blocks []Renderable, plot bool) string {
	var b strings.Builder
	for _, r := range blocks {
		if f, ok := r.(Figure); ok && plot {
			b.WriteString(f.Plot(72, 20) + "\n")
		} else {
			b.WriteString(r.Render() + "\n")
		}
	}
	return b.String() + strings.Repeat("-", 72) + "\n"
}
