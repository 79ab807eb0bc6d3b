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
// The same fold is the collector's one lifecycle checker (the paper's §1,
// §8 transparency claim): every row reports the five Violations classes;
// the two timing ones, impossible dwell and out of order, are not scored.
//
// Every accumulator is commutative — counts that depend only on the
// final deduplicated event set, never on arrival order — and scores
// are derived from those counts at Snapshot time only. That is what
// makes a detector rebuilt by WAL replay on boot DeepEqual one that
// watched the traffic live (the property the fraud-chaos suite
// enforces), exactly mirroring aggregate's streaming ≡ batch oracle.
// Working state is bounded the same way aggregate bounds its: per-
// impression pairing state falls to TTL sweeps and a MaxOpen pressure
// cap — the aggregator's own, once the detector joins its pass (Join) —
// score rows to a MaxRows cap, per-row placement maps to MaxSlots.
package detect

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
	"qtag/internal/jsonenc"
	"qtag/internal/keydir"
	"qtag/internal/obs"
	"qtag/internal/viewability"
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

// Options tunes a Detector. The zero value picks sensible defaults.
// RateSlots, the rate ramps, MaxSlots and MinEvents are options because
// the proof suites reach their cases through them; the other thresholds
// are constants below.
type Options struct {
	// Shards is the lock-stripe count for both the per-impression
	// working state and the score rows, rounded up to a power of two
	// (default 16, matching the beacon store and aggregate). A joined
	// detector's impressions are partitioned as its pass's are.
	Shards int
	// TTL evicts an impression's pairing/sequencing state after this
	// much arrival-clock idle time (default 15m; <0 disables, 0 means
	// default). Row counters keep their totals — eviction freezes, it
	// never un-counts. As with aggregate, TTL must exceed the longest
	// served→last-beacon gap or late beacons re-open state and shift
	// sequence counts. Unused once the detector joins another pass.
	TTL time.Duration
	// MaxOpen caps open impression working states across all shards
	// (0: unbounded). Over the cap, the least-recently-touched
	// impression in the inserting shard is evicted immediately. Unused
	// once the detector joins another pass.
	MaxOpen int
	// MaxRows caps score rows (campaign × solution) across all shards
	// (default 4096). Over the cap the least-recently-touched row in
	// the inserting shard is dropped entirely — working-set semantics:
	// a cold campaign's scores vanish rather than the process growing
	// without bound.
	MaxRows int
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
	// MinEvents gates flagging: rows with fewer total submissions
	// (first-seen + duplicates) never flag, whatever their ratios —
	// three weird beacons are noise, three hundred are a signal
	// (default 25).
	MinEvents int64
	// Now is the arrival clock driving TTL/pressure eviction (default
	// time.Now). Never used in scoring — scores are event-time only.
	// Unused once the detector joins another pass.
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
	if o.MinEvents <= 0 {
		o.MinEvents = 25
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Score constants below the Options surface: ratio thresholds where
// each detector's score leaves zero / saturates, the flag threshold,
// the rate bucket and the dwell classes. These encode "how much worse
// than honest-with-faults traffic before we care" and are deliberately
// not per-deployment knobs.
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

	rateBucket = time.Second // event-time bucket width for the rate detector

	dwellZeroMax  = 100 * time.Millisecond // a paired dwell at or under this is zero-dwell
	dwellExactTol = 50 * time.Millisecond  // |dwell − dwellTarget| at or under this is exactly-threshold
	gapTolerance  = 150 * time.Millisecond // tag sampling slack on a loaded→in-view gap: 1.5 windows of 100 ms
)

// dwellTarget is the viewability-standard dwell the "exactly at
// threshold" detector keys on: the MRC display standard's 1 s, which
// the paper's tags implement.
var dwellTarget = viewability.StandardCriteria(viewability.Display).Dwell

// An open impression is the bounded working state for one (campaign,
// impression): an imptable.Entry in the detector's imptable.Pass — its
// own, or an aggregator's it has joined. A solution's progress on it is
// the pass's Loaded and Viewed bits plus four of the detector's own: two
// net-adjusting sequence flags — a violation counted on the row is
// un-counted if the missing lifecycle event arrives late — and the class
// of its loaded→in-view gap, re-counted when a late event moves the
// format. So the final counts depend only on the final event set.
const (
	// srcNoLoadCounted: this source's in-view-without-loaded violation is
	// currently counted on the row; a late loaded decrements it.
	srcNoLoadCounted uint8 = 1 << (iota + 2)
	// srcNoServeCounted: this source's beacons-without-served violation
	// is currently counted; a late served event decrements it.
	srcNoServeCounted
	// srcGapUnder1s, srcGapUnder2s: the solution's loaded→in-view gap,
	// plus gapTolerance, is under 1 s, under 2 s — an impossible dwell
	// for a format whose standard dwell that is (dwellBit).
	srcGapUnder1s
	srcGapUnder2s
)

// dwellBit is the srcGapUnder bit of a format bucket's standard dwell.
func dwellBit(format string) uint8 {
	if viewability.StandardCriteria(viewability.FormatNamed(format)).Dwell == 2*time.Second {
		return srcGapUnder2s
	}
	return srcGapUnder1s
}

// row is one campaign × solution accumulator ("dsp" for served
// events). Every field is a commutative count or a min/max — order-
// insensitive by construction.
type row struct {
	camp   *campaign
	source string // owned

	events      int64 // first-seen events folded in
	dups        int64 // duplicate submissions absorbed by the store
	impressions int64 // distinct impressions this source reported on

	// Rate: fixed ring of event-time bucket counters, the largest of
	// them (peak — they only grow, so it is kept as they do), and the
	// observed bucket index extent. minB/maxB are valid once events > 0.
	slots      []int64
	peak       int64
	minB, maxB int64

	// Dwell histogram mass.
	dwellPairs int64
	dwellZero  int64
	dwellExact int64

	// Violations (see srcNoLoadCounted and srcGapUnder1s).
	seqNoLoad     int64
	seqNoServe    int64
	seqOrphanOut  int64
	seqShortDwell int64
	seqOutOfOrder int64

	// Geometry.
	sized     int64 // events carrying an ad size
	pixel     int64 // of those, 1×1 / 0×0
	slotViews map[string]*int64
	slotTop   int64 // the largest slotViews count, kept as they grow
	slotTotal int64 // Σ slotViews
	slotOther int64 // in-views on placements beyond the MaxSlots cap

	// newer and older link the row into its shard's recency list, which
	// drives MaxRows pressure eviction.
	newer, older *row
}

// campaign is one campaign's score rows, by source — the order the
// report lists them in.
type campaign struct {
	id   string // owned
	rows []*row
	gone atomic.Bool // the MaxRows cap took its last row; set under the shard lock
	// at is where the last render put the campaign's rows, and flagged
	// whether one of them was; rowLocked marks it dirty.
	at      jsonenc.Span
	flagged bool
}

// find returns the campaign's row for source with its index, or nil with
// the index it would take. Caller holds the shard lock.
func (c *campaign) find(source string) (int, *row) {
	i, ok := slices.BinarySearchFunc(c.rows, source, func(r *row, s string) int { return strings.Compare(r.source, s) })
	if !ok {
		return i, nil
	}
	return i, c.rows[i]
}

// rowShard is one lock-striped partition of the score-row table; a
// campaign's rows all live in one shard, so multi-row adjustments
// (late served un-counting every source's violation) are atomic.
type rowShard struct {
	mu    sync.Mutex
	camps map[string]*campaign

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
	pass  *imptable.Pass // open impressions: the detector's own, or the pass it joined
	camps []rowShard
	mask  uint32

	// dir is every campaign with a live row, in id order, for the report
	// to walk; walkMu keeps walks from overlapping.
	walkMu sync.Mutex
	dir    keydir.Dir[campaign]

	dupEvents  atomic.Int64 // duplicate submissions folded in
	rowCount   atomic.Int64 // live score rows
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
		camps: make([]rowShard, size),
		mask:  uint32(size - 1),
	}
	d.pass = imptable.NewPass(imptable.PassOptions{Shards: size, TTL: opts.TTL, MaxOpen: opts.MaxOpen, Now: opts.Now}, d.fold)
	for i := range d.camps {
		d.camps[i].camps = make(map[string]*campaign)
	}
	d.dir.Init(func(c *campaign) string { return c.id }, func(c *campaign) bool { return c.gone.Load() })
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
func bucketIndex(at time.Time) int64 {
	return at.UnixNano() / int64(rateBucket)
}

// isPixelSize reports whether an ad size is degenerate inventory —
// the classic 1×1 (or 0×0) tracking-pixel stuffing signature.
func isPixelSize(size string) bool {
	return size == "1x1" || size == "0x0" || size == "1×1"
}

// Join makes the detector a fold of p — an aggregator's pass
// (aggregate.Aggregator.Pass) — in place of the pass it was made with:
// from then on one lookup of an event's impression feeds both, the
// detector keeps its impressions exactly as long as p does, and its
// TTL, MaxOpen and Now options go unused. Call it before either sees an
// event, and attach only p's owner as the store's first-seen observer:
// the detector's Observe now runs p, every fold of it included.
func (d *Detector) Join(p *imptable.Pass) {
	d.pass = p
	p.Join(d.fold)
}

// Observe folds one first-seen event into the score rows. Install it
// as a beacon.Store observer: the caller guarantees the event is not
// a duplicate and that events of one impression arrive serialized.
func (d *Detector) Observe(e beacon.Event) { d.pass.Observe(e) }

// fold is the detector's share of its pass: the score-row updates for
// what the event changed, under the campaign shard's lock (nested in the
// pass shard's, always — matching aggregate).
func (d *Detector) fold(e beacon.Event, c imptable.Change) {
	cs := d.shard(e.CampaignID)
	cs.mu.Lock()
	r := d.rowLocked(cs, e.CampaignID, sourceLabel(e.Source))
	if c.Moved() {
		regap(r.camp, &c)
	}
	r.events++
	r.observeRate(bucketIndex(e.At), r.events == 1)
	if e.Meta.AdSize != "" {
		r.sized++
		if isPixelSize(e.Meta.AdSize) {
			r.pixel++
		}
	}

	if c.Flags == nil { // served
		if c.ServedFirst {
			r.impressions++
			// The served event arrived (possibly late): un-count every
			// solution's beacons-without-served violation. Eviction
			// freezes, it never un-counts — so a row the MaxRows cap
			// already dropped is left absent, not recreated and driven
			// negative; the clamp guards the same invariant if the row
			// was evicted and later recreated by fresh traffic.
			for i, n := 0, c.Table.Sources(c.Entry); i < n; i++ {
				name, ss := c.Table.SourceAt(c.Entry, i)
				if *ss&srcNoServeCounted != 0 {
					*ss &^= srcNoServeCounted
					if _, rr := r.camp.find(name); rr != nil && rr.seqNoServe > 0 {
						rr.seqNoServe--
					}
				}
			}
		}
		cs.mu.Unlock()
		return
	}
	ss := c.Flags
	if c.Fresh {
		r.impressions++
		if !c.Entry.Served {
			*ss |= srcNoServeCounted
			r.seqNoServe++
		}
	}
	if c.LoadedFirst && *ss&srcNoLoadCounted != 0 {
		*ss &^= srcNoLoadCounted
		if r.seqNoLoad > 0 { // clamp: the counted row may have been evicted and recreated
			r.seqNoLoad--
		}
	}
	if c.ViewedFirst && *ss&imptable.Loaded == 0 {
		*ss |= srcNoLoadCounted
		r.seqNoLoad++
	}
	if e.Type == beacon.EventInView && e.Meta.Slot != "" {
		r.addSlotView(e.Meta.Slot, d.opts.MaxSlots)
	}
	switch {
	case c.Paired:
		if e.Type == beacon.EventInView {
			// The out-of-view that was waiting is an orphan no longer.
			if r.seqOrphanOut > 0 { // clamp: the counted row may have been evicted and recreated
				r.seqOrphanOut--
			}
		}
		if c.Reversed {
			r.seqOutOfOrder++
		}
		r.observeDwell(c.Dwell)
	case c.Orphan:
		r.seqOrphanOut++
	}
	if c.GapPaired {
		switch short := c.Gap + gapTolerance; {
		case c.Gap < 0:
			r.seqOutOfOrder++
		case short < time.Second:
			*ss |= srcGapUnder1s | srcGapUnder2s
		case short < 2*time.Second:
			*ss |= srcGapUnder2s
		}
		if *ss&dwellBit(c.To) != 0 {
			r.seqShortDwell++
		}
	}
	cs.mu.Unlock()
}

// regap re-counts the impossible dwells of an impression's solutions
// under the format the event moved it to, before the event's own gap is
// set; the rows are as for a late served event, clamps and all.
func regap(camp *campaign, c *imptable.Change) {
	from, to := dwellBit(c.From), dwellBit(c.To)
	for i, n := 0, c.Table.Sources(c.Entry); i < n && from != to; i++ {
		name, ss := c.Table.SourceAt(c.Entry, i)
		was, now := *ss&from != 0, *ss&to != 0
		if _, r := camp.find(name); r != nil && now && !was {
			r.seqShortDwell++
		} else if r != nil && was && !now && r.seqShortDwell > 0 {
			r.seqShortDwell--
		}
	}
}

// ObserveDup folds one duplicate submission into the flood counters.
// Install it via beacon.Store.AddDupObserver — duplicates are the one
// signal idempotent ingest hides from every counter downstream, and
// replayed captured beacons are nothing but duplicates.
func (d *Detector) ObserveDup(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	cs := d.shard(e.CampaignID)
	cs.mu.Lock()
	d.rowLocked(cs, e.CampaignID, sourceLabel(e.Source)).dups++
	cs.mu.Unlock()
	d.dupEvents.Add(1)
}

// shard returns the row shard that holds campaign id.
func (d *Detector) shard(id string) *rowShard { return &d.camps[beacon.HashID(id)&d.mask] }

// rowLocked returns (creating if needed) the score row of campaign id
// and source, marks it the shard's most recently touched and marks its
// campaign dirty, as every write to a campaign's rows comes through
// here; caller holds cs.mu. A new row and campaign clone id and source,
// which come from the event in hand. Creation over the MaxRows cap
// evicts the least recently touched row of the same shard — never the
// one just created, which stays even when it is alone in its shard —
// and a campaign left without rows leaves the shard.
func (d *Detector) rowLocked(cs *rowShard, id, source string) *row {
	c := cs.camps[id]
	if c == nil {
		c = &campaign{id: strings.Clone(id)}
		cs.camps[c.id] = c
		d.dir.Add(c)
	}
	c.at.Dirty()
	i, r := c.find(source)
	if r != nil {
		cs.touch(r)
		return r
	}
	r = &row{camp: c, source: strings.Clone(source), slots: make([]int64, d.opts.RateSlots)}
	c.rows = slices.Insert(c.rows, i, r)
	cs.touch(r)
	if d.rowCount.Add(1) > int64(d.opts.MaxRows) {
		cs.evictVisits++
		if victim := cs.oldest; victim != r {
			cs.unlink(victim)
			vc := victim.camp
			vc.at.Dirty()
			if vc.rows = slices.DeleteFunc(vc.rows, func(x *row) bool { return x == victim }); len(vc.rows) == 0 {
				delete(cs.camps, vc.id)
				vc.gone.Store(true)
			}
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
	r.peak = max(r.peak, r.slots[idx])
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
func (r *row) observeDwell(dw time.Duration) {
	r.dwellPairs++
	if dw <= dwellZeroMax {
		r.dwellZero++
		return
	}
	diff := dw - dwellTarget
	if diff < 0 {
		diff = -diff
	}
	if diff <= dwellExactTol {
		r.dwellExact++
	}
}

// addSlotView counts an in-view against its placement, folding
// overflow placements into the "other" bucket once the map is full.
// Under the cap the fold is order-insensitive; over it, which slots
// are named and which are "other" depends on first-arrival order —
// acceptable because the concentration *ratio* the score uses barely
// moves, and honest inventory sits far below the cap anyway.
//
// The count is behind a pointer so that only a new placement is ever
// assigned, under a clone: assigning to a string key that is already in
// a map stores the new key string too, and slot is the event's, which
// is valid only while its request is handled.
func (r *row) addSlotView(slot string, maxSlots int) {
	if r.slotViews == nil {
		r.slotViews = make(map[string]*int64)
	}
	n := r.slotViews[slot]
	if n == nil {
		if len(r.slotViews) >= maxSlots {
			r.slotOther++
			return
		}
		n = new(int64)
		r.slotViews[strings.Clone(slot)] = n
	}
	*n++
	r.slotTop = max(r.slotTop, *n)
	r.slotTotal++
}

// Sweep drops the working state of every impression idle for at least
// the TTL as of now, returning how many were evicted. Row counters
// keep their totals. A joined detector's impressions are its pass's:
// the owner's Sweep covers them, and this one sweeps that same pass.
func (d *Detector) Sweep(now time.Time) int { return d.pass.Sweep(now) }

// OpenImpressions returns how many impressions hold working state, in
// one atomic load.
func (d *Detector) OpenImpressions() int { return d.pass.Open() }

// Rows returns how many score rows are live.
func (d *Detector) Rows() int { return int(d.rowCount.Load()) }

// Updates returns how many first-seen events have been folded in.
func (d *Detector) Updates() int64 { return d.pass.Updates() }

// DupEvents returns how many duplicate submissions have been folded in.
func (d *Detector) DupEvents() int64 { return d.dupEvents.Load() }

// Evicted returns dropped impression working states (TTL + pressure).
func (d *Detector) Evicted() int64 { return d.pass.Evicted() }

// RegisterMetrics exports the detection layer on a metrics registry.
func (d *Detector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_detect_updates_total", "First-seen events folded into the fraud detectors.", d.pass.Updates)
	r.CounterFunc("qtag_detect_dup_events_total", "Duplicate submissions folded into the flood detector.", d.dupEvents.Load)
	r.CounterFunc("qtag_detect_evicted_total", "Impression working states dropped by TTL/pressure eviction (the aggregator's, when the detector shares its pass).", d.pass.Evicted)
	r.CounterFunc("qtag_detect_row_evicted_total", "Score rows dropped by the MaxRows working-set cap.", d.rowEvicted.Load)
	r.GaugeFunc("qtag_detect_open_impressions", "Impressions currently holding detection working state (the aggregator's open impressions, when the detector shares its pass).",
		func() float64 { return float64(d.OpenImpressions()) })
	r.GaugeFunc("qtag_detect_rows", "Live campaign × solution score rows.",
		func() float64 { return float64(d.rowCount.Load()) })
	r.GaugeFunc("qtag_detect_flagged_campaigns", "Campaigns with at least one row at or over the flag threshold.",
		func() float64 { return float64(d.FlaggedCampaigns()) })
}
