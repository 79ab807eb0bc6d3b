// Package detect is the streaming fraud/anomaly layer: a second
// consumer of the beacon store's first-seen observer hook, alongside
// internal/aggregate. Where aggregate answers "what happened", detect
// answers "should we believe it" — the paper's premise is that
// inventory lies about viewability, and Marciel et al. (PAPERS.md)
// show fraudulent traffic dominating the error budget in the wild.
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
// Every accumulator is commutative — counts that depend only on the
// final deduplicated event set, never on arrival order — and scores
// are derived from those counts at Snapshot time only. That is what
// makes a detector rebuilt by WAL replay on boot DeepEqual one that
// watched the traffic live (the property the fraud-chaos suite
// enforces), exactly mirroring aggregate's streaming ≡ batch oracle.
// Working state is bounded the same way aggregate bounds its: per-
// impression pairing state falls to TTL sweeps and a MaxOpen pressure
// cap, score rows to a MaxRows cap, per-row placement maps to
// MaxSlots.
package detect

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
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
const SourceDSP = "dsp"

// Options tunes a Detector. The zero value picks sensible defaults;
// the score ramp knobs are exported so operators can re-tune per
// inventory mix without recompiling.
type Options struct {
	// Shards is the lock-stripe count for both the per-impression
	// working state and the score rows, rounded up to a power of two
	// (default 16, matching the beacon store and aggregate).
	Shards int
	// TTL evicts an impression's pairing/sequencing state after this
	// much arrival-clock idle time (default 15m; <0 disables, 0 means
	// default). Row counters keep their totals — eviction freezes, it
	// never un-counts. As with aggregate, TTL must exceed the longest
	// served→last-beacon gap or late beacons re-open state and shift
	// sequence counts.
	TTL time.Duration
	// MaxOpen caps open impression working states across all shards
	// (0: unbounded). Over the cap, the least-recently-touched
	// impression in the inserting shard is evicted immediately.
	MaxOpen int
	// MaxRows caps score rows (campaign × solution) across all shards
	// (default 4096). Over the cap the least-recently-touched row in
	// the inserting shard is dropped entirely — working-set semantics:
	// a cold campaign's scores vanish rather than the process growing
	// without bound.
	MaxRows int
	// RateBucket is the event-time bucket width for the rate detector
	// (default 1s).
	RateBucket time.Duration
	// RateSlots is the fixed per-row bucket ring size (default 64).
	// Bucket indices alias into the ring modulo RateSlots, which keeps
	// memory constant and — because aliasing depends only on the
	// event's timestamp — keeps the fold order-insensitive.
	RateSlots int
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
	// MaxSlots caps the per-row placement→in-view map for the stacking
	// detector (default 64); overflow slots fold into an "other"
	// bucket.
	MaxSlots int
	// DwellTarget is the viewability-standard dwell the "exactly at
	// threshold" detector keys on (default 1s, the IAB display
	// standard the paper's tags implement).
	DwellTarget time.Duration
	// DwellZeroMax: a paired dwell at or under this counts as
	// zero-dwell (default 100ms).
	DwellZeroMax time.Duration
	// DwellExactTol: |dwell − DwellTarget| at or under this counts as
	// exactly-threshold (default 50ms).
	DwellExactTol time.Duration
	// FlagThreshold is the composite score at which a row is flagged
	// (default 0.5).
	FlagThreshold float64
	// MinEvents gates flagging: rows with fewer total submissions
	// (first-seen + duplicates) never flag, whatever their ratios —
	// three weird beacons are noise, three hundred are a signal
	// (default 25).
	MinEvents int64
	// Now is the arrival clock driving TTL/pressure eviction (default
	// time.Now). Never used in scoring — scores are event-time only.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.TTL == 0 {
		o.TTL = 15 * time.Minute
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 4096
	}
	if o.RateBucket <= 0 {
		o.RateBucket = time.Second
	}
	if o.RateSlots <= 0 {
		o.RateSlots = 64
	}
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
	if o.MaxSlots <= 0 {
		o.MaxSlots = 64
	}
	if o.DwellTarget <= 0 {
		o.DwellTarget = time.Second
	}
	if o.DwellZeroMax <= 0 {
		o.DwellZeroMax = 100 * time.Millisecond
	}
	if o.DwellExactTol <= 0 {
		o.DwellExactTol = 50 * time.Millisecond
	}
	if o.FlagThreshold <= 0 {
		o.FlagThreshold = 0.5
	}
	if o.MinEvents <= 0 {
		o.MinEvents = 25
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Score ramp constants below the Options surface: ratio thresholds
// where each detector's score leaves zero / saturates. These encode
// "how much worse than honest-with-faults traffic before we care" and
// are deliberately not per-deployment knobs.
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
)

// An open impression is the bounded working state for one (campaign,
// impression): an imptable.Entry, flat exactly as aggregate's is. Each
// solution's progress on it is these flags, two of them net-adjusting
// sequence flags: a violation counted on the row is un-counted if the
// missing lifecycle event arrives late, so the final counts depend only
// on the final event set, not arrival order.
const (
	srcLoaded uint8 = 1 << iota
	srcViewed
	// srcNoLoadCounted: this source's in-view-without-loaded violation is
	// currently counted on the row; a late loaded decrements it.
	srcNoLoadCounted
	// srcNoServeCounted: this source's beacons-without-served violation
	// is currently counted; a late served event decrements it.
	srcNoServeCounted
)

// impShard is one lock-striped partition of the open impressions.
type impShard struct {
	mu   sync.Mutex
	open *imptable.Table
}

// rowKey addresses one campaign × solution score row ("dsp" for
// served events).
type rowKey struct {
	Campaign string
	Source   string
}

// row is one campaign × solution accumulator. Every field is a
// commutative count or a min/max — order-insensitive by construction.
type row struct {
	key rowKey // the map key, with strings the row owns

	events      int64 // first-seen events folded in
	dups        int64 // duplicate submissions absorbed by the store
	impressions int64 // distinct impressions this source reported on

	// Rate: fixed ring of event-time bucket counters plus the observed
	// bucket index extent. minB/maxB are valid once events > 0.
	slots      []int64
	minB, maxB int64

	// Dwell histogram mass.
	dwellPairs int64
	dwellZero  int64
	dwellExact int64

	// Sequence violations (net-adjusting, see srcNoLoadCounted).
	seqNoLoad    int64
	seqNoServe   int64
	seqOrphanOut int64

	// Geometry.
	sized     int64 // events carrying an ad size
	pixel     int64 // of those, 1×1 / 0×0
	slotViews map[string]int64
	slotOther int64 // in-views on placements beyond the MaxSlots cap

	// newer and older link the row into its shard's recency list, which
	// drives MaxRows pressure eviction.
	newer, older *row
}

// rowShard is one lock-striped partition of the score-row table; a
// campaign's rows all live in one shard, so multi-row adjustments
// (late served un-counting every source's violation) are atomic.
type rowShard struct {
	mu   sync.Mutex
	rows map[rowKey]*row

	// newest and oldest are the ends of the intrusive recency list:
	// every row of the shard, most recently touched first. A row is
	// touched when an event or a duplicate lands on it (rowLocked), so
	// the MaxRows cap evicts in O(1) instead of scanning the shard for
	// the coldest row on every insert over the cap.
	newest, oldest *row
	// evictVisits counts rows examined by MaxRows eviction; a test
	// holds it to one per insert.
	evictVisits int64
}

// touch makes r the shard's most recently touched row, linking it in if
// it is new.
func (cs *rowShard) touch(r *row) {
	if cs.newest == r {
		return
	}
	if r.newer != nil { // linked, and not at the front: unlink first
		cs.unlink(r)
	}
	r.older = cs.newest
	if cs.newest != nil {
		cs.newest.newer = r
	} else {
		cs.oldest = r
	}
	cs.newest = r
}

// unlink removes r from the recency list.
func (cs *rowShard) unlink(r *row) {
	if r.newer != nil {
		r.newer.older = r.older
	} else {
		cs.newest = r.older
	}
	if r.older != nil {
		r.older.newer = r.newer
	} else {
		cs.oldest = r.newer
	}
	r.newer, r.older = nil, nil
}

// Detector is the streaming scorer. All methods are safe for
// concurrent use. Wire Observe via beacon.Store.AddObserver and
// ObserveDup via AddDupObserver so it sees exactly the store's
// first-seen / duplicate partition of valid submissions.
type Detector struct {
	opts  Options
	imps  []impShard
	camps []rowShard
	mask  uint32

	updates    atomic.Int64 // first-seen events folded in
	dupEvents  atomic.Int64 // duplicate submissions folded in
	openCount  atomic.Int64 // open impression working states
	rowCount   atomic.Int64 // live score rows
	evicted    atomic.Int64 // impression states dropped (TTL + pressure)
	pressureEv atomic.Int64 // the MaxOpen subset
	rowEvicted atomic.Int64 // score rows dropped by the MaxRows cap
}

// New returns an empty detector.
func New(opts Options) *Detector {
	opts = opts.withDefaults()
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	d := &Detector{
		opts:  opts,
		imps:  make([]impShard, size),
		camps: make([]rowShard, size),
		mask:  uint32(size - 1),
	}
	for i := range d.imps {
		d.imps[i].open = imptable.New()
	}
	for i := range d.camps {
		d.camps[i].rows = make(map[rowKey]*row)
	}
	return d
}

// sourceLabel maps an event source to its row label.
func sourceLabel(s beacon.Source) string {
	if s == "" {
		return SourceDSP
	}
	return string(s)
}

// bucketIndex is the event-time rate bucket an event falls in.
func (o Options) bucketIndex(at time.Time) int64 {
	return at.UnixNano() / int64(o.RateBucket)
}

// isPixelSize reports whether an ad size is degenerate inventory —
// the classic 1×1 (or 0×0) tracking-pixel stuffing signature.
func isPixelSize(size string) bool {
	return size == "1x1" || size == "0x0" || size == "1×1"
}

// Observe folds one first-seen event into the score rows. Install it
// as a beacon.Store observer: the caller guarantees the event is not
// a duplicate and that events of one impression arrive serialized.
func (d *Detector) Observe(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	now := d.opts.Now()
	// The key is built in a stack buffer; the table copies it when it opens
	// the impression.
	var kb [96]byte
	key := e.AppendImpressionKey(kb[:0])
	sh := &d.imps[beacon.HashID(e.ImpressionID)&d.mask]

	sh.mu.Lock()
	st, created := sh.open.Open(key, now.UnixNano())

	// All row updates for this event happen under the campaign shard
	// lock (nested imp→row lock order, always — matching aggregate).
	cs := &d.camps[beacon.HashID(e.CampaignID)&d.mask]
	cs.mu.Lock()
	r := d.rowLocked(cs, rowKey{e.CampaignID, sourceLabel(e.Source)})
	r.events++
	r.observeRate(d.opts.bucketIndex(e.At), r.events == 1)
	if e.Meta.AdSize != "" {
		r.sized++
		if isPixelSize(e.Meta.AdSize) {
			r.pixel++
		}
	}

	switch e.Type {
	case beacon.EventServed:
		if !st.Served {
			st.Served = true
			r.impressions++
			// The served event arrived (possibly late): un-count every
			// solution's beacons-without-served violation. Eviction
			// freezes, it never un-counts — so a row the MaxRows cap
			// already dropped is left absent, not recreated and driven
			// negative; the clamp guards the same invariant if the row
			// was evicted and later recreated by fresh traffic.
			for i, n := 0, sh.open.Sources(st); i < n; i++ {
				name, ss := sh.open.SourceAt(st, i)
				if *ss&srcNoServeCounted != 0 {
					*ss &^= srcNoServeCounted
					if rr := cs.rows[rowKey{e.CampaignID, name}]; rr != nil && rr.seqNoServe > 0 {
						rr.seqNoServe--
					}
				}
			}
		}
	default:
		si, ss, fresh := sh.open.Source(st, string(e.Source))
		if fresh {
			r.impressions++
			if !st.Served {
				*ss |= srcNoServeCounted
				r.seqNoServe++
			}
		}
		switch e.Type {
		case beacon.EventLoaded:
			if *ss&srcLoaded == 0 {
				*ss |= srcLoaded
				if *ss&srcNoLoadCounted != 0 {
					*ss &^= srcNoLoadCounted
					if r.seqNoLoad > 0 { // clamp: the counted row may have been evicted and recreated
						r.seqNoLoad--
					}
				}
			}
		case beacon.EventInView:
			if *ss&srcViewed == 0 {
				*ss |= srcViewed
				if *ss&srcLoaded == 0 {
					*ss |= srcNoLoadCounted
					r.seqNoLoad++
				}
			}
			if e.Meta.Slot != "" {
				r.addSlotView(e.Meta.Slot, d.opts.MaxSlots)
			}
			if dwell, paired := sh.open.InView(st, si, e.Seq, e.At); paired {
				// The out-of-view that was waiting is an orphan no longer.
				if r.seqOrphanOut > 0 { // clamp: the counted row may have been evicted and recreated
					r.seqOrphanOut--
				}
				r.observeDwell(dwell, d.opts)
			}
		case beacon.EventOutOfView:
			dwell, paired, orphan := sh.open.OutOfView(st, si, e.Seq, e.At)
			if paired {
				r.observeDwell(dwell, d.opts)
			} else if orphan {
				r.seqOrphanOut++
			}
		}
	}
	cs.mu.Unlock()

	if created {
		d.openCount.Add(1)
		// Identical semantics to aggregate's pressure eviction: the coldest
		// impression of this shard, never the one just opened; per-shard
		// approximate cap, frozen row totals.
		if d.opts.MaxOpen > 0 && d.openCount.Load() > int64(d.opts.MaxOpen) && sh.open.EvictOldest(st) {
			d.openCount.Add(-1)
			d.evicted.Add(1)
			d.pressureEv.Add(1)
		}
	}
	sh.mu.Unlock()
	d.updates.Add(1)
}

// ObserveDup folds one duplicate submission into the flood counters.
// Install it via beacon.Store.AddDupObserver — duplicates are the one
// signal idempotent ingest hides from every counter downstream, and
// replayed captured beacons are nothing but duplicates.
func (d *Detector) ObserveDup(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	cs := &d.camps[beacon.HashID(e.CampaignID)&d.mask]
	cs.mu.Lock()
	d.rowLocked(cs, rowKey{e.CampaignID, sourceLabel(e.Source)}).dups++
	cs.mu.Unlock()
	d.dupEvents.Add(1)
}

// rowLocked returns (creating if needed) a score row and marks it the
// shard's most recently touched; caller holds cs.mu. A new row goes
// under a clone of k, whose strings come from the event in hand.
// Creation over the MaxRows cap evicts the least recently touched row of
// the same shard — never the one just created, which stays even when it
// is alone in its shard.
func (d *Detector) rowLocked(cs *rowShard, k rowKey) *row {
	r := cs.rows[k]
	if r != nil {
		cs.touch(r)
		return r
	}
	k = rowKey{strings.Clone(k.Campaign), strings.Clone(k.Source)}
	r = &row{key: k, slots: make([]int64, d.opts.RateSlots)}
	cs.rows[k] = r
	cs.touch(r)
	if d.rowCount.Add(1) > int64(d.opts.MaxRows) {
		cs.evictVisits++
		if victim := cs.oldest; victim != r {
			cs.unlink(victim)
			delete(cs.rows, victim.key)
			d.rowCount.Add(-1)
			d.rowEvicted.Add(1)
		}
	}
	return r
}

// observeRate folds an event-time bucket index into the ring.
func (r *row) observeRate(b int64, first bool) {
	n := int64(len(r.slots))
	idx := b % n
	if idx < 0 {
		idx += n
	}
	r.slots[idx]++
	if first {
		r.minB, r.maxB = b, b
		return
	}
	if b < r.minB {
		r.minB = b
	}
	if b > r.maxB {
		r.maxB = b
	}
}

// observeDwell classifies one completed in-view/out-of-view pair.
func (r *row) observeDwell(dw time.Duration, o Options) {
	r.dwellPairs++
	if dw <= o.DwellZeroMax {
		r.dwellZero++
		return
	}
	diff := dw - o.DwellTarget
	if diff < 0 {
		diff = -diff
	}
	if diff <= o.DwellExactTol {
		r.dwellExact++
	}
}

// addSlotView counts an in-view against its placement, folding
// overflow placements into the "other" bucket once the map is full.
// Under the cap the fold is order-insensitive; over it, which slots
// are named and which are "other" depends on first-arrival order —
// acceptable because the concentration *ratio* the score uses barely
// moves, and honest inventory sits far below the cap anyway.
func (r *row) addSlotView(slot string, maxSlots int) {
	if r.slotViews == nil {
		r.slotViews = make(map[string]int64)
	}
	if _, ok := r.slotViews[slot]; !ok {
		if len(r.slotViews) >= maxSlots {
			r.slotOther++
			return
		}
		slot = strings.Clone(slot) // the map keeps it; the event's copy goes with its request
	}
	r.slotViews[slot]++
}

// Sweep drops the working state of every impression idle for at least
// the TTL as of now, returning how many were evicted. Row counters
// keep their totals.
func (d *Detector) Sweep(now time.Time) int {
	if d.opts.TTL < 0 {
		return 0
	}
	evicted := 0
	for i := range d.imps {
		sh := &d.imps[i]
		sh.mu.Lock()
		evicted += sh.open.Sweep(now.UnixNano(), d.opts.TTL)
		sh.mu.Unlock()
	}
	d.evicted.Add(int64(evicted))
	d.openCount.Add(-int64(evicted))
	return evicted
}

// OpenImpressions returns how many impressions hold working state: the
// counter kept on open, sweep and pressure eviction, not a pass over the
// shard locks (it is read by every /metrics scrape).
func (d *Detector) OpenImpressions() int { return int(d.openCount.Load()) }

// Rows returns how many score rows are live.
func (d *Detector) Rows() int { return int(d.rowCount.Load()) }

// Updates returns how many first-seen events have been folded in.
func (d *Detector) Updates() int64 { return d.updates.Load() }

// DupEvents returns how many duplicate submissions have been folded in.
func (d *Detector) DupEvents() int64 { return d.dupEvents.Load() }

// Evicted returns dropped impression working states (TTL + pressure).
func (d *Detector) Evicted() int64 { return d.evicted.Load() }

// RegisterMetrics exports the detection layer on a metrics registry.
func (d *Detector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_detect_updates_total", "First-seen events folded into the fraud detectors.", d.updates.Load)
	r.CounterFunc("qtag_detect_dup_events_total", "Duplicate submissions folded into the flood detector.", d.dupEvents.Load)
	r.CounterFunc("qtag_detect_evicted_total", "Impression working states dropped by TTL/pressure eviction.", d.evicted.Load)
	r.CounterFunc("qtag_detect_row_evicted_total", "Score rows dropped by the MaxRows working-set cap.", d.rowEvicted.Load)
	r.GaugeFunc("qtag_detect_open_impressions", "Impressions currently holding detection working state.",
		func() float64 { return float64(d.OpenImpressions()) })
	r.GaugeFunc("qtag_detect_rows", "Live campaign × solution score rows.",
		func() float64 { return float64(d.rowCount.Load()) })
	r.GaugeFunc("qtag_detect_flagged_campaigns", "Campaigns with at least one row at or over the flag threshold.",
		func() float64 { return float64(d.FlaggedCampaigns()) })
}
