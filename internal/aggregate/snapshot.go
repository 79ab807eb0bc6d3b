package aggregate

import (
	"cmp"
	"slices"
	"strings"

	"qtag/internal/beacon"
)

// SourceCounts is one solution's classification of a row's impressions,
// as served on GET /report. Viewed + NotViewed + NotMeasured equals the
// row's Impressions; the rates derive from the counts, so two snapshots
// with equal counts are equal everywhere.
type SourceCounts struct {
	Measured    int64 `json:"measured"`
	Viewed      int64 `json:"viewed"`
	NotViewed   int64 `json:"not_viewed"`
	NotMeasured int64 `json:"not_measured"`
	// MeasuredRate is measured / served (0 when nothing served).
	MeasuredRate float64 `json:"measured_rate"`
	// ViewabilityRate is viewed / measured (0 when nothing measured) —
	// the paper's campaign viewability rate.
	ViewabilityRate float64 `json:"viewability_rate"`
}

// Row is one campaign × format line of the report.
type Row struct {
	CampaignID  string                  `json:"campaign_id"`
	Format      string                  `json:"format,omitempty"`
	Impressions int64                   `json:"impressions"`
	Served      int64                   `json:"served"`
	Sources     map[string]SourceCounts `json:"sources"`
}

// DwellRow is one campaign × source dwell histogram of the report.
type DwellRow struct {
	CampaignID string        `json:"campaign_id"`
	Source     string        `json:"source"`
	Dwell      DwellSnapshot `json:"dwell"`
}

// Snapshot is the aggregator's full deterministic state: rows sorted by
// (campaign, format), dwell rows by (campaign, source). Two aggregators
// fed the same deduplicated event set — in any order, at any
// concurrency, across any crash/replay boundary — produce DeepEqual
// snapshots; the equivalence property tests enforce exactly that.
type Snapshot struct {
	Rows  []Row      `json:"rows"`
	Dwell []DwellRow `json:"dwell,omitempty"`
}

// canonicalSources always appear in every row, so report consumers can
// rely on the qtag/commercial split existing even before a solution has
// checked in.
var canonicalSources = []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}

func canonical(s beacon.Source) bool {
	return s == beacon.SourceQTag || s == beacon.SourceCommercial
}

// Snapshot copies the accumulators. Shard locks are taken one at a
// time, so under concurrent ingest the result is consistent per
// campaign shard; after quiescence it is exact. It sorts what it copied
// rather than trusting the accumulators' order: the report encoder
// walks that order, and Snapshot is the reference it is held to.
func (a *Aggregator) Snapshot() Snapshot {
	var snap Snapshot
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for _, c := range cs.camps {
			for _, r := range c.rows {
				row := Row{
					CampaignID:  c.id,
					Format:      r.format,
					Impressions: r.impressions,
					Served:      r.served,
					Sources:     make(map[string]SourceCounts, len(r.src)+2),
				}
				for _, s := range canonicalSources {
					row.Sources[string(s)] = exportSource(r, r.find(s))
				}
				for i := range r.src {
					if sc := &r.src[i]; !canonical(sc.source) {
						row.Sources[string(sc.source)] = exportSource(r, sc)
					}
				}
				snap.Rows = append(snap.Rows, row)
			}
			for _, d := range c.dwell {
				snap.Dwell = append(snap.Dwell, DwellRow{CampaignID: c.id, Source: d.source, Dwell: d.h.Snapshot()})
			}
		}
		cs.mu.Unlock()
	}
	snap.sort()
	return snap
}

// sort puts s in the order Snapshot documents: rows by (campaign,
// format), dwell rows by (campaign, source).
func (s *Snapshot) sort() {
	slices.SortFunc(s.Rows, func(a, b Row) int {
		return cmp.Or(strings.Compare(a.CampaignID, b.CampaignID), strings.Compare(a.Format, b.Format))
	})
	slices.SortFunc(s.Dwell, func(a, b DwellRow) int {
		return cmp.Or(strings.Compare(a.CampaignID, b.CampaignID), strings.Compare(a.Source, b.Source))
	})
}

// exportSource derives the report counts from one row's counters; sc
// may be nil (source never seen — everything is not-measured).
func exportSource(r *row, sc *srcCounts) SourceCounts {
	out := SourceCounts{}
	if sc != nil {
		out.Measured = sc.measured
		out.Viewed = sc.viewed
		out.NotViewed = sc.notViewed
	}
	out.NotMeasured = r.impressions - out.Viewed - out.NotViewed
	if r.served > 0 {
		out.MeasuredRate = float64(out.Measured) / float64(r.served)
	}
	if out.Measured > 0 {
		out.ViewabilityRate = float64(out.Viewed) / float64(out.Measured)
	}
	return out
}

// CampaignIDs returns the campaigns of the report's directory, in the
// order GET /report lists them.
func (a *Aggregator) CampaignIDs() []string {
	a.walkMu.Lock()
	defer a.walkMu.Unlock()
	return a.dir.Keys()
}

// Recompute is the batch oracle the streaming path is proven against:
// it rebuilds an aggregator from scratch by pushing the raw event set
// through a fresh deduplicating store with the aggregator attached as
// its observer — exactly the wiring a live server uses, minus time.
// Duplicates in events collapse, order does not matter. TTL eviction is
// disabled (a batch recompute sees all of history at once).
func Recompute(events []beacon.Event, opts Options) *Aggregator {
	opts = opts.withDefaults()
	opts.TTL = -1
	store := beacon.NewStore()
	agg := Attach(store, opts)
	for _, e := range events {
		_ = store.Submit(e) // invalid events are skipped, as at ingest
	}
	return agg
}
