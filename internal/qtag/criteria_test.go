package qtag

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"qtag/internal/viewability"
)

// criteriaLiteral is one branch of the tag's criteriaFor: a format test,
// or none for the fallback return.
var criteriaLiteral = regexp.MustCompile(`(?m)^    (?:if \(format === '([a-z-]+)'\) )?return \{ area: ([0-9.]+), dwellMs: ([0-9]+) \};$`)

// TestCriteriaForGolden binds the per-format criteria the deployed tag
// carries to viewability's table twice over: the rendered criteriaFor is
// byte for byte testdata/criteria_for.js, and every literal in it is the
// table's entry for its format — so a change to either side fails here
// until the golden file is changed with it.
func TestCriteriaForGolden(t *testing.T) {
	js := genDefault()
	start := strings.Index(js, "  function criteriaFor(format) {")
	if start < 0 {
		t.Fatal("the tag has no criteriaFor")
	}
	end := start + strings.Index(js[start:], "\n  }\n") + len("\n  }\n")
	got := js[start:end]
	want, err := os.ReadFile("testdata/criteria_for.js")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("criteriaFor differs from testdata/criteria_for.js:\n got:\n%s\nwant:\n%s", got, want)
	}

	seen := map[viewability.Format]bool{}
	matches := criteriaLiteral.FindAllStringSubmatch(string(want), -1)
	for _, m := range matches {
		f := viewability.Display
		if m[1] != "" {
			f = viewability.FormatNamed(m[1])
			if f.String() != m[1] {
				t.Errorf("criteriaFor tests format %q, which the table does not name", m[1])
			}
		}
		area, _ := strconv.ParseFloat(m[2], 64)
		ms, _ := strconv.Atoi(m[3])
		lit := viewability.Criteria{AreaFraction: area, Dwell: time.Duration(ms) * time.Millisecond}
		if table := viewability.StandardCriteria(f); lit != table {
			t.Errorf("criteriaFor gives %s %v, the table %v", f, lit, table)
		}
		seen[f] = true
	}
	if len(matches) != viewability.NumFormats || len(seen) != viewability.NumFormats {
		t.Errorf("criteriaFor has %d branches over %d formats, want one per each of the table's %d:\n%s",
			len(matches), len(seen), viewability.NumFormats, want)
	}
	if last := matches[len(matches)-1]; last[1] != "" {
		t.Errorf("criteriaFor ends on a format test, not the display fallback: %q", last[0])
	}
}
