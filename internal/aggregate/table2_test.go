package aggregate

import "testing"

// An empty aggregator has no slices.
func TestSlicesEmptyStore(t *testing.T) {
	if got := New(Options{}).Slices(); len(got) != 0 {
		t.Errorf("empty aggregator slices = %+v", got)
	}
}

// An empty aggregator's Table 2 is the paper's four cells at zero.
func TestTable2EmptyStore(t *testing.T) {
	cells := Table2(New(Options{}).Slices())
	if len(cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Served != 0 || c.QTag != 0 || c.Commercial != 0 {
			t.Errorf("empty store cell = %+v", c)
		}
	}
}
