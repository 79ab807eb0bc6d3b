package detect

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"qtag/internal/beacon"
)

// ScoreRow is one campaign × solution line of the fraud report. Score
// is the composite (the max of the per-detector contributions);
// Flagged applies the threshold and the MinEvents volume gate.
type ScoreRow struct {
	CampaignID  string             `json:"campaign_id"`
	Source      string             `json:"source"`
	Events      int64              `json:"events"`
	Dups        int64              `json:"dups"`
	Impressions int64              `json:"impressions"`
	Score       float64            `json:"score"`
	Flagged     bool               `json:"flagged"`
	Contribs    map[string]float64 `json:"contributions"`
}

// Snapshot is the detector's full deterministic state: rows sorted by
// (campaign, source), plus the distinct flagged campaign ids. Two
// detectors fed the same deduplicated event set plus the same
// duplicate submissions — in any order, at any concurrency, across
// any crash/WAL-replay boundary — produce DeepEqual snapshots (no
// eviction having fired), which is the property the fraud-chaos suite
// pins down.
type Snapshot struct {
	Rows []ScoreRow `json:"rows"`
	// Flagged is the sorted set of campaigns with ≥1 flagged row.
	Flagged []string `json:"flagged_campaigns,omitempty"`
}

// Snapshot scores every live row. Scores are computed here, from the
// commutative counters, never during ingest — so they inherit the
// counters' order-insensitivity. It sorts what it scored rather than
// trusting the rows' order: the report encoder walks that order, and
// Snapshot is the reference it is held to.
func (d *Detector) Snapshot() Snapshot {
	var snap Snapshot
	flagged := map[string]bool{}
	for i := range d.camps {
		cs := &d.camps[i]
		cs.mu.Lock()
		for _, c := range cs.camps {
			for _, r := range c.rows {
				sr := d.score(r)
				if sr.Flagged {
					flagged[c.id] = true
				}
				snap.Rows = append(snap.Rows, sr)
			}
		}
		cs.mu.Unlock()
	}
	slices.SortFunc(snap.Rows, func(a, b ScoreRow) int {
		return cmp.Or(strings.Compare(a.CampaignID, b.CampaignID), strings.Compare(a.Source, b.Source))
	})
	for c := range flagged {
		snap.Flagged = append(snap.Flagged, c)
	}
	sort.Strings(snap.Flagged)
	return snap
}

// contribs derives one row's detector scores, indexed as Detectors is,
// and their composite (the max). Caller holds the row shard lock.
func (d *Detector) contribs(r *row) (c [5]float64, composite float64) {
	c = [5]float64{rateScore(r, d.opts), dwellScore(r), sequenceScore(r), duplicateScore(r), geometryScore(r)}
	for _, v := range c {
		if v > composite {
			composite = v
		}
	}
	return c, composite
}

// flags applies the threshold and the MinEvents volume gate to a row's
// composite score.
func (d *Detector) flags(r *row, composite float64) bool {
	return composite >= d.opts.FlagThreshold && r.events+r.dups >= d.opts.MinEvents
}

// score derives one row's report line. Caller holds the row shard lock.
func (d *Detector) score(r *row) ScoreRow {
	c, composite := d.contribs(r)
	m := make(map[string]float64, len(Detectors))
	for i, name := range Detectors {
		m[name] = c[i]
	}
	return ScoreRow{
		CampaignID:  r.camp.id,
		Source:      r.source,
		Events:      r.events,
		Dups:        r.dups,
		Impressions: r.impressions,
		Score:       composite,
		Flagged:     d.flags(r, composite),
		Contribs:    m,
	}
}

// FlaggedCampaigns counts distinct campaigns with at least one flagged
// row. It is the metrics-scrape path behind the
// qtag_detect_flagged_campaigns gauge, so unlike Snapshot it allocates
// no rows, sorts nothing and stops at a campaign's first flagged row.
func (d *Detector) FlaggedCampaigns() int {
	n := 0
	for i := range d.camps {
		cs := &d.camps[i]
		cs.mu.Lock()
		for _, c := range cs.camps {
			if slices.ContainsFunc(c.rows, func(r *row) bool { _, s := d.contribs(r); return d.flags(r, s) }) {
				n++
			}
		}
		cs.mu.Unlock()
	}
	return n
}

// CampaignIDs returns the campaigns of the report's directory, in the
// order GET /report lists them.
func (d *Detector) CampaignIDs() []string {
	d.walkMu.Lock()
	defer d.walkMu.Unlock()
	return d.dir.Keys()
}

// clamp01 bounds a ramp into [0,1]; NaN (0/0 ramps) clamps to 0.
func clamp01(v float64) float64 {
	if !(v > 0) { // catches NaN too
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ramp maps v linearly from [lo,hi] onto [0,1].
func ramp(v, lo, hi float64) float64 { return clamp01((v - lo) / (hi - lo)) }

// rateScore: the admission limiter's EWMA-vs-baseline gradient
// restated in event time. The absolute term fires when the peak
// bucket exceeds plausible human arrival rates outright; the relative
// term fires when the peak gradients far past the row's own mean
// bucket — a burst inside otherwise-calm traffic.
func rateScore(r *row, o Options) float64 {
	if r.events == 0 {
		return 0
	}
	// Once the observed bucket extent exceeds the ring, aliasing folds
	// ~wraps distinct buckets into every slot, so the peak slot holds a
	// lifetime accumulation, not a 1-bucket count. Normalize it back to
	// an estimated single-bucket peak — otherwise a long-lived honest
	// row ramps the absolute score by sheer age (64 slots × 1s wraps
	// every minute; ~10 ev/s sustained for 15 min would read as 150/s).
	slots := int64(len(r.slots))
	span := r.maxB - r.minB + 1
	wraps := (span + slots - 1) / slots
	if wraps < 1 {
		wraps = 1
	}
	bucketSec := o.RateBucket.Seconds()
	peakRate := float64(r.peak) / float64(wraps) / bucketSec
	absolute := ramp(peakRate, o.RateBaseline, o.RateMax)

	// Mean events per *slot*: the span clamps to the ring for the same
	// aliasing reason, so the raw peak and the mean compare in the same
	// folded space and the burst ratio needs no wrap correction.
	spanSlots := float64(span)
	if s := float64(slots); spanSlots > s {
		spanSlots = s
	}
	mean := float64(r.events) / spanSlots
	burst := ramp(float64(r.peak)/mean, o.BurstTolerance, o.BurstMax)
	if burst > absolute {
		return burst
	}
	return absolute
}

// dwellScore: share of completed dwell cycles massed at ~0 (hidden or
// stuffed inventory reporting instant visibility loss) or at exactly
// the viewability threshold (scripted beacons emitting the minimum
// dwell the standard requires). Honest dwell is broadly spread.
func dwellScore(r *row) float64 {
	if r.dwellPairs < minDwellPairs {
		return 0
	}
	ratio := float64(r.dwellZero+r.dwellExact) / float64(r.dwellPairs)
	return ramp(ratio, dwellRatioMin, dwellRatioMax)
}

// sequenceScore: lifecycle violations per impression. Spoofed beacons
// have no real lifecycle behind them — in-view without the tag's
// loaded check-in, solution beacons on impressions the DSP never
// served, out-of-view with no in-view. Honest traffic under lossy
// delivery shows a few of these; fabricated traffic is mostly these.
func sequenceScore(r *row) float64 {
	if r.impressions == 0 {
		return 0
	}
	viol := r.seqNoLoad + r.seqNoServe + r.seqOrphanOut
	ratio := float64(viol) / float64(r.impressions)
	return ramp(ratio, seqRatioMin, seqRatioMax)
}

// duplicateScore: duplicate share of all submissions. Idempotent
// ingest makes replayed beacons invisible to every counter — this is
// the one place a replay farm's traffic shows up at all.
func duplicateScore(r *row) float64 {
	total := r.events + r.dups
	if total == 0 {
		return 0
	}
	ratio := float64(r.dups) / float64(total)
	return ramp(ratio, dupRatioMin, dupRatioMax)
}

// geometryScore: degenerate creative sizes (1×1 pixel stuffing) or
// in-views concentrated on one publisher placement (ad stacking — a
// pile of creatives occupying a single slot, each claiming the view).
func geometryScore(r *row) float64 {
	var pixel float64
	if r.sized > 0 {
		pixel = ramp(float64(r.pixel)/float64(r.sized), pixelRatioMin, pixelRatioMax)
	}
	var stack float64
	if total := r.slotTotal + r.slotOther; total >= minStackViews {
		stack = ramp(float64(r.slotTop)/float64(total), stackShareMin, stackShareMax)
	}
	if stack > pixel {
		return stack
	}
	return pixel
}

// Recompute is the batch oracle the streaming path is proven against:
// it rebuilds a detector from scratch by pushing the raw submission
// log — first-seen events *and* duplicates, exactly what the WAL
// journals — through a fresh deduplicating store with the detector on
// both hooks, the same wiring a live server uses. TTL eviction is
// disabled (a batch recompute sees all of history at once).
func Recompute(submissions []beacon.Event, opts Options) *Detector {
	opts = opts.withDefaults()
	opts.TTL = -1
	det := New(opts)
	store := beacon.NewStore()
	store.AddObserver(det.Observe)
	store.AddDupObserver(det.ObserveDup)
	for _, e := range submissions {
		_ = store.Submit(e) // invalid events are skipped, as at ingest
	}
	return det
}

// Text renders the snapshot as the aligned table qtag-replay -report
// prints. Empty snapshots render a single line so the caller need not
// special-case them.
func (s Snapshot) Text() string {
	if len(s.Rows) == 0 {
		return "fraud: no scored rows\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-12s %8s %8s %7s  %5s  %s\n",
		"CAMPAIGN", "SOURCE", "EVENTS", "DUPS", "SCORE", "FLAG", "TOP DETECTORS")
	for _, r := range s.Rows {
		flag := ""
		if r.Flagged {
			flag = "FLAG"
		}
		fmt.Fprintf(&b, "%-24s %-12s %8d %8d %7.2f  %5s  %s\n",
			r.CampaignID, r.Source, r.Events, r.Dups, r.Score, flag, topContribs(r.Contribs))
	}
	if len(s.Flagged) > 0 {
		fmt.Fprintf(&b, "flagged campaigns: %s\n", strings.Join(s.Flagged, ", "))
	}
	return b.String()
}

// topContribs lists the nonzero contributions, largest first, in
// "name=0.87" form.
func topContribs(c map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var parts []kv
	for _, name := range Detectors {
		if v := c[name]; v > 0 {
			parts = append(parts, kv{name, v})
		}
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].v > parts[j].v })
	if len(parts) == 0 {
		return "-"
	}
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = fmt.Sprintf("%s=%.2f", p.k, p.v)
	}
	return strings.Join(out, " ")
}
