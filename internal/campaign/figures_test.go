package campaign

import (
	"math"
	"strings"
	"testing"

	"qtag/internal/beacon"
)

func runSim(t *testing.T) *Result {
	t.Helper()
	return New(Config{
		Seed: 21, Campaigns: 16, ImpressionsPerCampaign: 150, BothCampaigns: 16,
	}).Run()
}

func TestFigure3Summaries(t *testing.T) {
	res := runSim(t)
	fig := Figure3(res)
	q := fig[beacon.SourceQTag]
	c := fig[beacon.SourceCommercial]
	if q.Campaigns != 16 {
		t.Errorf("qtag campaigns = %d, want 16", q.Campaigns)
	}
	if c.Campaigns != 16 {
		t.Errorf("commercial campaigns = %d, want 16 (the both-tag subset)", c.Campaigns)
	}
	if q.MeanMeasured <= c.MeanMeasured {
		t.Errorf("Q-Tag measured (%.3f) must exceed commercial (%.3f)", q.MeanMeasured, c.MeanMeasured)
	}
	if q.MeanMeasured < 0.88 || q.MeanMeasured > 0.98 {
		t.Errorf("Q-Tag mean measured = %.3f", q.MeanMeasured)
	}
	if math.Abs(q.MeanViewability-c.MeanViewability) > 0.08 {
		t.Errorf("viewability means should be close: %.3f vs %.3f", q.MeanViewability, c.MeanViewability)
	}
	if q.StdMeasured < 0 || q.StdViewability <= 0 {
		t.Error("error bars should be non-degenerate")
	}
	if !strings.Contains(q.String(), "measured") {
		t.Error("summary String wrong")
	}
}

func TestTable2Rows(t *testing.T) {
	res := runSim(t)
	cells := Table2ForResult(res)
	if len(cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(cells))
	}
	wantOrder := [][2]string{{"app", "Android"}, {"app", "iOS"}, {"browser", "Android"}, {"browser", "iOS"}}
	for i, cell := range cells {
		if cell.SiteType != wantOrder[i][0] || cell.OS != wantOrder[i][1] {
			t.Errorf("row %d = %s/%s, want %s/%s", i, cell.SiteType, cell.OS, wantOrder[i][0], wantOrder[i][1])
		}
		if cell.Served == 0 {
			t.Errorf("row %d unpopulated", i)
		}
		if cell.QTag <= cell.Commercial {
			t.Errorf("row %d: qtag %.3f must beat commercial %.3f", i, cell.QTag, cell.Commercial)
		}
		if cell.String() == "" {
			t.Error("cell String empty")
		}
	}
	// Worst commercial cell is Android app.
	if !(cells[0].Commercial < cells[1].Commercial &&
		cells[0].Commercial < cells[2].Commercial &&
		cells[0].Commercial < cells[3].Commercial) {
		t.Errorf("Android app should be the commercial solution's worst cell: %+v", cells)
	}
}

func TestBreakdown(t *testing.T) {
	res := runSim(t)
	rows := Breakdown(res)
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].ID >= rows[i].ID {
			t.Fatal("breakdown must be sorted by id")
		}
	}
	both := 0
	for _, r := range rows {
		if r.Served == 0 || r.QTagMeasured == 0 {
			t.Errorf("row %s empty", r.ID)
		}
		if r.Both {
			both++
			if r.CommMeasured == 0 {
				t.Errorf("both-campaign %s lacks commercial data", r.ID)
			}
		} else if r.CommMeasured != 0 {
			t.Errorf("qtag-only campaign %s has commercial data", r.ID)
		}
	}
	if both != 16 {
		t.Errorf("both rows = %d", both)
	}
}
