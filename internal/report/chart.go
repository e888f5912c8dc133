package report

import (
	"fmt"
	"io"
	"strings"
)

// ASCII charts for terminal output: horizontal bar charts (the paper's
// grouped-bar figures) and sparklines (harvest traces, adaptation curves).

// Bar is one labelled value of a bar chart.
type Bar struct {
	// Label is rendered left of the bar.
	Label string
	// Value is the bar length; Max of the chart scales it.
	Value float64
}

// BarChart renders labelled horizontal bars scaled to width columns.
type BarChart struct {
	// Title is printed above the chart.
	Title string
	// Bars holds the rows in render order.
	Bars []Bar
	// Max is the full-scale value (0 = auto: the largest bar).
	Max float64
	// Width is the bar area width in runes (0 = 40).
	Width int
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.Bars = append(c.Bars, Bar{Label: label, Value: value})
}

// Write renders the chart.
func (c *BarChart) Write(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	max := c.Max
	if max <= 0 {
		for _, b := range c.Bars {
			if b.Value > max {
				max = b.Value
			}
		}
	}
	labelW := 0
	for _, b := range c.Bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	var out strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&out, "%s\n", c.Title)
	}
	for _, b := range c.Bars {
		n := 0
		if max > 0 {
			n = int(b.Value/max*float64(width) + 0.5)
		}
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&out, "%-*s |%s%s| %6.2f%%\n",
			labelW, b.Label, strings.Repeat("█", n), strings.Repeat(" ", width-n), 100*b.Value)
	}
	_, err := io.WriteString(w, out.String())
	return err
}
