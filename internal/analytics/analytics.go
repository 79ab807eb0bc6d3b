// Package analytics turns a simulation's campaign counts into the
// paper's evaluation artifacts: the Figure 3 measured-rate and
// viewability-rate comparison (mean ± standard deviation across
// campaigns) and the Table 2 measured-rate slices by site type × OS.
package analytics

import (
	"fmt"
	"sort"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/stats"
)

// SolutionSummary is one bar of Figure 3: the across-campaign mean and
// standard deviation of a solution's rates.
type SolutionSummary struct {
	Source beacon.Source
	// Campaigns is the number of campaigns instrumented with this
	// solution.
	Campaigns int
	// MeanMeasured / StdMeasured summarise the measured rate
	// (loaded / served) across campaigns.
	MeanMeasured float64
	StdMeasured  float64
	// MeanViewability / StdViewability summarise the viewability rate
	// (in-view / measured) across campaigns.
	MeanViewability float64
	StdViewability  float64
}

// String implements fmt.Stringer.
func (s SolutionSummary) String() string {
	return fmt.Sprintf("%s: measured %.1f%%±%.1f, viewability %.1f%%±%.1f (%d campaigns)",
		s.Source, s.MeanMeasured*100, s.StdMeasured*100,
		s.MeanViewability*100, s.StdViewability*100, s.Campaigns)
}

// Figure3 computes the paper's Figure 3 from a simulation result: Q-Tag
// rates across every campaign, commercial rates across the campaigns that
// carried both tags.
func Figure3(res *campaign.Result) map[beacon.Source]SolutionSummary {
	var qm, qv, cm, cv []float64
	for _, c := range res.Campaigns {
		if c.Served == 0 {
			continue
		}
		// Q-Tag instruments every campaign.
		qm = append(qm, c.MeasuredRate(beacon.SourceQTag))
		if c.QTagLoaded > 0 {
			qv = append(qv, c.ViewabilityRate(beacon.SourceQTag))
		}
		if c.Spec.Both {
			cm = append(cm, c.MeasuredRate(beacon.SourceCommercial))
			if c.CommercialLoaded > 0 {
				cv = append(cv, c.ViewabilityRate(beacon.SourceCommercial))
			}
		}
	}
	return map[beacon.Source]SolutionSummary{
		beacon.SourceQTag: {
			Source: beacon.SourceQTag, Campaigns: len(qm),
			MeanMeasured: stats.Mean(qm), StdMeasured: stats.StdDev(qm),
			MeanViewability: stats.Mean(qv), StdViewability: stats.StdDev(qv),
		},
		beacon.SourceCommercial: {
			Source: beacon.SourceCommercial, Campaigns: len(cm),
			MeanMeasured: stats.Mean(cm), StdMeasured: stats.StdDev(cm),
			MeanViewability: stats.Mean(cv), StdViewability: stats.StdDev(cv),
		},
	}
}

// Table2Cell is one row of Table 2: measured rates for a site-type × OS
// slice of mobile impressions.
type Table2Cell struct {
	SiteType string
	OS       string
	Served   int
	// QTag and Commercial are the measured rates in this slice.
	QTag       float64
	Commercial float64
}

// String implements fmt.Stringer.
func (c Table2Cell) String() string {
	return fmt.Sprintf("%-8s %-8s qtag %.1f%%  commercial %.1f%% (n=%d)",
		c.SiteType, c.OS, c.QTag*100, c.Commercial*100, c.Served)
}

// Table2 computes the Table 2 slices from an aggregator, restricted to
// the given campaigns (nil/empty = all). The paper computes this table on
// the comparison subset — the campaigns instrumented with *both* tags —
// so pass that subset when only some campaigns carry the commercial tag;
// Table2ForResult does this automatically. Rows follow the paper's order:
// app/Android, app/iOS, browser/Android, browser/iOS.
func Table2(a *aggregate.Aggregator, campaignIDs ...string) []Table2Cell {
	slices := a.Slices(campaignIDs...)
	cells := make([]Table2Cell, 0, 4)
	for _, site := range []string{"app", "browser"} {
		for _, os := range []string{"Android", "iOS"} {
			c := Table2Cell{SiteType: site, OS: os}
			for _, s := range slices {
				if s.SiteType == site && s.OS == os {
					c.Served = int(s.Served)
					c.QTag = s.MeasuredRate(beacon.SourceQTag)
					c.Commercial = s.MeasuredRate(beacon.SourceCommercial)
				}
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// Table2ForResult computes Table 2 over the simulation's comparison
// subset (the campaigns carrying both tags), matching the paper's §6
// methodology.
func Table2ForResult(res *campaign.Result) []Table2Cell {
	var both []string
	for _, c := range res.Campaigns {
		if c.Spec.Both {
			both = append(both, c.Spec.ID)
		}
	}
	return Table2(res.Aggregate, both...)
}

// CampaignBreakdown is a per-campaign summary row for reporting.
type CampaignBreakdown struct {
	ID              string
	Served          int
	QTagMeasured    float64
	QTagViewability float64
	Both            bool
	CommMeasured    float64
	CommViewability float64
}

// Breakdown lists per-campaign rates sorted by campaign id.
func Breakdown(res *campaign.Result) []CampaignBreakdown {
	rows := make([]CampaignBreakdown, 0, len(res.Campaigns))
	for _, c := range res.Campaigns {
		rows = append(rows, CampaignBreakdown{
			ID:              c.Spec.ID,
			Served:          c.Served,
			QTagMeasured:    c.MeasuredRate(beacon.SourceQTag),
			QTagViewability: c.ViewabilityRate(beacon.SourceQTag),
			Both:            c.Spec.Both,
			CommMeasured:    c.MeasuredRate(beacon.SourceCommercial),
			CommViewability: c.ViewabilityRate(beacon.SourceCommercial),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows
}
