package report

import (
	"fmt"
	"math"
	"strings"
)

// SeriesData is one named curve for Plot.
type SeriesData struct {
	Name string
	Xs   []int
	Ys   []float64
}

// Plot renders one or more curves as an ASCII scatter chart with a y
// axis, suitable for terminal reproduction of the paper's figures. Each
// series is drawn with its own marker (1, 2, 3, … by position). Width
// and height are the plot area in characters; sensible defaults apply
// when non-positive.
func Plot(title string, series []SeriesData, width, height int) string {
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 16
	}
	// Establish ranges.
	minX, maxX := math.MaxInt32, math.MinInt32
	maxY := 0.0
	for _, s := range series {
		for i := range s.Xs {
			if s.Xs[i] < minX {
				minX = s.Xs[i]
			}
			if s.Xs[i] > maxX {
				maxX = s.Xs[i]
			}
			if s.Ys[i] > maxY {
				maxY = s.Ys[i]
			}
		}
	}
	if minX > maxX || maxY == 0 {
		return title + "\n(no data)\n"
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	markers := []rune{'x', 'o', '+', '*', '#', '@'}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.Xs {
			col := 0
			if maxX > minX {
				col = int(float64(s.Xs[i]-minX) / float64(maxX-minX) * float64(width-1))
			}
			row := height - 1 - int(s.Ys[i]/maxY*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = m
		}
	}

	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	for r, line := range grid {
		yVal := maxY * float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&sb, "%7.4f │%s\n", yVal, string(line))
	}
	sb.WriteString("        └" + strings.Repeat("─", width) + "\n")
	fmt.Fprintf(&sb, "         %-d%s%d\n", minX, strings.Repeat(" ", max(1, width-len(fmt.Sprint(minX))-len(fmt.Sprint(maxX)))), maxX)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	sb.WriteString("         " + strings.Join(legend, "  ") + "\n")
	return sb.String()
}
