package aggregate

import (
	"sort"

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
// campaign shard; after quiescence it is exact.
func (a *Aggregator) Snapshot() Snapshot {
	var snap Snapshot
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for k, r := range cs.rows {
			row := Row{
				CampaignID:  k.Campaign,
				Format:      k.Format,
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
		for k, h := range cs.dwell {
			snap.Dwell = append(snap.Dwell, DwellRow{CampaignID: k.Campaign, Source: k.Source, Dwell: h.Snapshot()})
		}
		cs.mu.Unlock()
	}
	sort.Slice(snap.Rows, func(i, j int) bool {
		a, b := snap.Rows[i], snap.Rows[j]
		if a.CampaignID != b.CampaignID {
			return a.CampaignID < b.CampaignID
		}
		return a.Format < b.Format
	})
	sort.Slice(snap.Dwell, func(i, j int) bool {
		a, b := snap.Dwell[i], snap.Dwell[j]
		if a.CampaignID != b.CampaignID {
			return a.CampaignID < b.CampaignID
		}
		return a.Source < b.Source
	})
	return snap
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

// CampaignIDs returns the distinct campaigns present, sorted.
func (a *Aggregator) CampaignIDs() []string {
	seen := map[string]bool{}
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for k := range cs.rows {
			seen[k.Campaign] = true
		}
		cs.mu.Unlock()
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
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
	agg := New(opts)
	store := beacon.NewStore()
	store.AddObserver(agg.Observe)
	for _, e := range events {
		_ = store.Submit(e) // invalid events are skipped, as at ingest
	}
	return agg
}
