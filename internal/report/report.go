// Package report renders the paper's tables and figure series as plain
// text for the cmd/ tools, EXPERIMENTS.md and test logs.
package report

import (
	"fmt"
	"strings"
)

// Table renders rows under headers with column-aligned plain-text
// formatting. Rows shorter than the header are padded with empty cells.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			sb.WriteString(pad(cell, w))
			if i < len(widths)-1 {
				sb.WriteString("  ")
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pad(s string, w int) string {
	n := w - len([]rune(s))
	if n <= 0 {
		return s
	}
	return s + strings.Repeat(" ", n)
}

// Bar renders one labelled horizontal bar scaled to max over width
// characters, with the numeric value appended — used for the Figure 3
// style comparisons.
func Bar(label string, value, max float64, width int) string {
	if width <= 0 {
		width = 40
	}
	frac := 0.0
	if max > 0 {
		frac = value / max
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return fmt.Sprintf("%-24s %s%s %6.1f%%",
		label, strings.Repeat("█", n), strings.Repeat("░", width-n), value*100)
}

// Percent formats a fraction as a percentage with one decimal.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
