// Package detect is the streaming fraud/anomaly layer: the scores of the
// campaign records internal/aggregate keeps. Where aggregate answers
// "what happened", detect answers "should we believe it" — the paper's
// premise is that inventory lies about viewability, and Marciel et al.
// (PAPERS.md) show fraudulent traffic dominating the error budget in the
// wild.
//
// Five detectors score every campaign × solution row:
//
//	rate       beacon rate-of-change: event-time peak bucket rate vs the
//	           row's own baseline (the admission limiter's EWMA-vs-
//	           decaying-minimum idiom, folded into event time so replay
//	           rebuilds it); catches bot farms minting impressions
//	           faster than humans browse
//	dwell      impossible dwell histograms: in-view/out-of-view pairs
//	           whose dwell masses at ~0 (hidden/stuffed inventory) or at
//	           exactly the viewability threshold (scripted beacons)
//	sequence   lifecycle ordering breaks: in-view with no tag check-in,
//	           solution beacons with no served event, out-of-view with
//	           no in-view — spoofed beacons have no real lifecycle
//	duplicate  flood score from the store's duplicate-submission hook:
//	           replayed captured beacons are byte-identical, so they
//	           dedup — invisible to counters, loud here
//	geometry   1×1-pixel creative sizes and stacked placements (all
//	           in-views concentrated on one publisher slot)
//
// The same rows are the collector's one lifecycle checker (the paper's
// §1, §8 transparency claim): every row reports the five Violations
// classes; the two timing ones, impossible dwell and out of order, are
// not scored.
//
// The aggregator's fold keeps the counts (aggregate.Score), every one
// commutative — it depends only on the final deduplicated event set and
// the duplicates, never on arrival order — and scores are derived from
// them here, at read time only. That is what makes a detector rebuilt by
// WAL replay on boot DeepEqual one that watched the traffic live (the
// property the fraud-chaos suite enforces), exactly mirroring
// aggregate's streaming ≡ batch oracle. A Detector holds no state of its
// own: it is a view of one aggregator's records.
package detect

import (
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/obs"
)

// Detector contribution names, in the order Text renders them.
const (
	DetectorRate      = "rate"
	DetectorDwell     = "dwell"
	DetectorSequence  = "sequence"
	DetectorDuplicate = "duplicate"
	DetectorGeometry  = "geometry"
)

// Detectors lists every contribution key a ScoreRow carries.
var Detectors = []string{DetectorRate, DetectorDwell, DetectorSequence, DetectorDuplicate, DetectorGeometry}

// SourceDSP labels the served-event row: served beacons carry no
// measurement source, but their rate/duplicate behaviour is still
// scoreable.
const SourceDSP = aggregate.SourceDSP

// Options tunes a Detector. The zero value picks sensible defaults. The
// rate ramps and MinEvents are options because the proof suites reach
// their cases through them; the other thresholds are constants below.
type Options struct {
	// Shards is the shard count of the records New makes, rounded up to a
	// power of two (default 16, matching the beacon store). A detector
	// Over an aggregator reads that aggregator's.
	Shards int
	// RateBaseline and RateMax ramp the absolute peak-rate score:
	// a peak bucket at RateBaseline events/sec scores 0, at RateMax
	// scores 1 (defaults 50 and 250).
	RateBaseline float64
	RateMax      float64
	// BurstTolerance and BurstMax ramp the relative burst score: the
	// peak-to-mean bucket ratio at which the score leaves 0 and hits 1
	// (defaults 4 and 16) — the EWMA-vs-baseline gradient restated in
	// event time.
	BurstTolerance float64
	BurstMax       float64
	// MinEvents gates flagging: rows with fewer total submissions
	// (first-seen + duplicates) never flag, whatever their ratios —
	// three weird beacons are noise, three hundred are a signal
	// (default 25).
	MinEvents int64
}

func (o Options) withDefaults() Options {
	if o.RateBaseline <= 0 {
		o.RateBaseline = 50
	}
	if o.RateMax <= o.RateBaseline {
		o.RateMax = o.RateBaseline + 200
	}
	if o.BurstTolerance <= 1 {
		o.BurstTolerance = 4
	}
	if o.BurstMax <= o.BurstTolerance {
		o.BurstMax = o.BurstTolerance * 4
	}
	if o.MinEvents <= 0 {
		o.MinEvents = 25
	}
	return o
}

// Score constants below the Options surface: ratio thresholds where
// each detector's score leaves zero / saturates, and the flag threshold.
// These encode "how much worse than honest-with-faults traffic before we
// care" and are deliberately not per-deployment knobs.
const (
	dwellRatioMin = 0.3 // zero+exact dwell share where score leaves 0
	dwellRatioMax = 0.8
	minDwellPairs = 10 // pairs needed before the dwell histogram means anything

	seqRatioMin = 0.15 // violations per impression; honest fault-drop stays under this
	seqRatioMax = 0.65

	dupRatioMin = 0.25 // duplicate share; HTTP retry storms stay under this
	dupRatioMax = 0.70

	pixelRatioMin = 0.2 // 1×1-size share of sized events
	pixelRatioMax = 0.7
	stackShareMin = 0.4 // top placement's share of in-views
	stackShareMax = 0.9
	minStackViews = 10 // in-views with a slot before concentration means anything

	flagThreshold = 0.5 // composite score at which a row is flagged
)

// Detector scores one aggregator's campaign records. All methods are
// safe for concurrent use.
type Detector struct {
	opts Options
	agg  *aggregate.Aggregator
}

// New returns a detector over a record set of its own, fed by its
// Observe and ObserveDup: wire Observe via beacon.Store.AddObserver and
// ObserveDup via AddDupObserver so it sees exactly the store's first-seen
// / duplicate partition of valid submissions.
func New(opts Options) *Detector {
	return Over(aggregate.New(aggregate.Options{Shards: opts.Shards}), opts)
}

// Over returns a detector that scores a's records — what qtag-server
// serves under -detect: a fed by aggregate.Attach, every event folded
// once for the report and the scores alike.
func Over(a *aggregate.Aggregator, opts Options) *Detector {
	return &Detector{opts: opts.withDefaults(), agg: a}
}

// Observe folds one first-seen event into the records the detector
// scores (aggregate.Aggregator.Observe).
func (d *Detector) Observe(e beacon.Event) { d.agg.Observe(e) }

// ObserveDup folds one duplicate submission into the flood counts
// (aggregate.Aggregator.ObserveDup).
func (d *Detector) ObserveDup(e beacon.Event) { d.agg.ObserveDup(e) }

// DupEvents returns how many duplicate submissions have been folded in.
func (d *Detector) DupEvents() int64 { return d.agg.DupEvents() }

// RegisterMetrics exports the detection layer on a metrics registry.
func (d *Detector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_detect_dup_events_total", "Duplicate submissions folded into the flood detector.", d.agg.DupEvents)
	r.GaugeFunc("qtag_detect_rows", "Live campaign × solution score rows.", func() float64 {
		n := 0
		d.agg.ScoreRows(func(_ string, rows []*aggregate.Score) { n += len(rows) })
		return float64(n)
	})
	r.GaugeFunc("qtag_detect_flagged_campaigns", "Campaigns with at least one row at or over the flag threshold.",
		func() float64 { return float64(d.FlaggedCampaigns()) })
}
