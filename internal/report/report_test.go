package report

import (
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"a-much-longer-name", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	w := len(lines[1])
	for i, l := range lines {
		if len(strings.TrimRight(l, " ")) > w {
			t.Errorf("line %d wider than separator: %q", i, l)
		}
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Errorf("content missing:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	out := Table([]string{"a", "b", "c"}, [][]string{{"only"}})
	if !strings.Contains(out, "only") {
		t.Error("short row dropped")
	}
}

func TestBar(t *testing.T) {
	full := Bar("qtag", 0.93, 1.0, 20)
	if !strings.Contains(full, "93.0%") {
		t.Errorf("Bar = %q", full)
	}
	if strings.Count(full, "█") != 19 { // 0.93*20 rounds to 19
		t.Errorf("fill chars = %d in %q", strings.Count(full, "█"), full)
	}
	empty := Bar("none", 0, 1, 10)
	if strings.Count(empty, "█") != 0 || strings.Count(empty, "░") != 10 {
		t.Errorf("empty bar = %q", empty)
	}
	// Overflow and zero-max are clamped.
	over := Bar("x", 2, 1, 10)
	if strings.Count(over, "█") != 10 {
		t.Errorf("overflow bar = %q", over)
	}
	zero := Bar("x", 0.5, 0, 10)
	if strings.Count(zero, "█") != 0 {
		t.Errorf("zero-max bar = %q", zero)
	}
	// Default width kicks in for non-positive widths.
	if !strings.Contains(Bar("x", 0.5, 1, 0), "░") {
		t.Error("default width missing")
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.934) != "93.4%" {
		t.Errorf("Percent = %q", Percent(0.934))
	}
}

func TestPlot(t *testing.T) {
	out := Plot("Figure 2", []SeriesData{
		{Name: "X", Xs: []int{9, 25, 60}, Ys: []float64{0.07, 0.02, 0.01}},
		{Name: "dice", Xs: []int{9, 25, 60}, Ys: []float64{0.09, 0.08, 0.08}},
	}, 40, 10)
	for _, want := range []string{"Figure 2", "x=X", "o=dice", "│", "└"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "x") < 3 {
		t.Errorf("markers missing:\n%s", out)
	}
	// Degenerate inputs do not panic.
	if !strings.Contains(Plot("empty", nil, 0, 0), "no data") {
		t.Error("empty plot should say so")
	}
	if !strings.Contains(Plot("flat", []SeriesData{{Name: "z", Xs: []int{1}, Ys: []float64{0}}}, 10, 5), "no data") {
		t.Error("all-zero plot should say so")
	}
	// Single-x series lands everything in column 0 without dividing by 0.
	one := Plot("one", []SeriesData{{Name: "p", Xs: []int{5, 5}, Ys: []float64{0.5, 1.0}}}, 10, 5)
	if !strings.Contains(one, "x") {
		t.Error("single-x plot missing markers")
	}
}
