// Package aggregate maintains streaming per-campaign viewability
// accumulators — the campaign-level product the paper's §4–§5 report:
// for every campaign × ad format, how many impressions were viewed,
// measured-but-not-viewed, and not measured by each solution, plus
// in-view dwell-time histograms from paired in-view/out-of-view beacons.
//
// The aggregator is attached to the beacon store (Attach): the store's
// impression records decide first-seen or duplicate and the aggregator
// folds each first-seen event into the same record, so it inherits the
// store's idempotency: duplicate beacons, HTTP retries and overlapping
// WAL replays never reach its counts, and rebuilding it from a WAL replay
// on boot reproduces exactly the state a continuously-running process
// would hold. Each campaign's record also keeps the per-solution scoring
// state internal/detect reads (score.go), the duplicates the store's
// duplicate observer reports included: one record per campaign, one fold
// per event. Every update is incremental — serving a report never scans
// raw events — and per-impression working state is evicted on a TTL so
// memory stays bounded under unbounded traffic while the campaign
// counters keep their all-time totals.
//
// Classification per impression and source s (mirrors §6's definitions):
//
//	viewed        ≥1 in-view event from s
//	not-viewed    ≥1 loaded event from s, no in-view
//	not-measured  everything else (no loaded check-in from s)
//
// The three buckets partition the campaign's distinct impressions, so
// viewed + not-viewed + not-measured = impressions always holds — even
// across evictions. The streaming state is proven equivalent to a batch
// recompute over the raw event set by the property tests in this
// package (see Recompute).
package aggregate

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
)

// Options tunes an Aggregator. The zero value picks sensible defaults.
type Options struct {
	// Shards is the impression-state partition count, rounded up to a
	// power of two (default 16, matching the beacon store).
	Shards int
	// TTL evicts an impression's working state after this much arrival-
	// clock idle time (default 15m; <0 disables eviction, 0 means the
	// default). Campaign counters are never evicted — only the per-
	// impression dedup/pairing state is. TTL must exceed the longest
	// served→last-beacon gap or a late beacon re-opens the impression and
	// counts it again.
	TTL time.Duration
	// Window is the rollup window width (default 1m).
	Window time.Duration
	// MaxWindows bounds retained rollup windows (default 60).
	MaxWindows int
	// MaxOpen caps the total number of open impression working states
	// across all shards (0: unbounded, the default). When an insert
	// pushes past the cap, the least-recently-touched impression in the
	// same shard is evicted immediately — pressure eviction raises the
	// same frozen-totals semantics as TTL eviction, just early, so the
	// aggregator degrades measurement fidelity instead of growing until
	// the kernel OOM-kills the whole node.
	MaxOpen int
	// DwellBounds are the dwell histogram bucket upper bounds in seconds
	// (default obs.DwellBuckets).
	DwellBounds []float64
	// Now is the arrival clock used for TTL accounting and window
	// assignment (default time.Now). Tests inject a fake.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.TTL == 0 {
		o.TTL = 15 * time.Minute
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 60
	}
	if o.DwellBounds == nil {
		o.DwellBounds = obs.DwellBuckets
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// srcCounts are one row's status counters for one solution. notViewed
// is maintained with decrements (loaded-then-in-view moves the impression
// from not-viewed to viewed), so it is not monotonic — it is a gauge of
// the current classification, not an event count.
type srcCounts struct {
	source    beacon.Source // owned (see beacon.Source.Owned)
	measured  int64         // impressions with a loaded check-in
	viewed    int64         // impressions with an in-view
	notViewed int64         // loaded but (so far) no in-view
}

// row is one campaign × format accumulator. Like an impression's
// sources, src is a slice searched linearly — one or two entries, in
// first-report order — so Observe and the report encoder reach a
// solution's counters without a map lookup, a pointer chase or a map
// iterator.
type row struct {
	format      string // owned
	impressions int64  // distinct impressions observed
	served      int64  // impressions with a served event
	src         []srcCounts
}

// campaign is one campaign's record, its lists in the order GET /report
// lists them: its rows by format, its dwell histograms and its score
// rows by source; and its Table 2 slices, which its shard also sums.
// Dwell is not sliced by format: an impression may migrate format
// buckets when a late event carries a different format, and histograms
// cannot be un-observed.
type campaign struct {
	id     string // owned
	rows   []*row
	dwell  []dwellRow
	scores []*Score
	slices SliceSum
	// at is where the last render put the campaign's rows, and
	// [dwellLo, dwellHi) its dwell rows, from the dwell section's start;
	// fold marks it dirty. scoreAt is where the last render put the score
	// rows, and flagged whether one of them was; fold and ObserveDup mark
	// it dirty.
	at               jsonenc.Span
	dwellLo, dwellHi int
	scoreAt          jsonenc.Span
	flagged          bool
}

// dwellRow is one campaign × source dwell histogram.
type dwellRow struct {
	source string // owned
	h      *DwellHist
}

// campShard is one lock-striped partition of the campaign table. A
// campaign lives in one shard, so a format migration is atomic under a
// single lock.
type campShard struct {
	mu    sync.Mutex
	camps map[string]*campaign
	// slices is the shard's campaigns' Table 2 slices summed, credited
	// beside theirs, so the report sums shards, not campaigns.
	slices SliceSum
}

// Aggregator is the streaming accumulator set. All methods are safe for
// concurrent use. Attach it to a store, or feed a standalone one (New)
// through beacon.Store.AddObserver, so it only ever sees first-seen
// events.
type Aggregator struct {
	opts Options
	// The open impressions (DESIGN.md §10, "Observer layout"): enough to
	// classify status transitions and pair dwell cycles, closed when the
	// impression goes idle while the counters it contributed to stay. An
	// attached aggregator's are its store's records; a standalone one
	// shards its own.
	store *beacon.Store
	own   []passShard
	camps []campShard // accumulators, by hash(campaign)
	mask  uint32

	updates    atomic.Int64 // events folded
	open       atomic.Int64 // open impressions, across the shards
	evicted    atomic.Int64 // impressions closed (TTL + pressure)
	pressureEv atomic.Int64 // the subset closed by the MaxOpen cap

	// dir is every campaign record in id order, for the report to walk;
	// walkMu keeps walks from overlapping. campaigns counts those a
	// first-seen event has reached.
	walkMu    sync.Mutex
	dir       keydir.Dir[campaign]
	campaigns atomic.Int64
	dups      atomic.Int64 // duplicate submissions folded in

	winMu   sync.Mutex
	windows windowRing

	// boundsJSON is opts.DwellBounds as every dwell row of the report
	// carries it, encoded once instead of once per histogram per render.
	boundsJSON []byte

	dwellObs  *obs.Histogram
	dwellPair atomic.Int64 // completed in-view/out-of-view pairs
}

// New returns an empty standalone aggregator, fed by Observe.
func New(opts Options) *Aggregator {
	a := newAggregator(opts)
	a.own = make([]passShard, len(a.camps))
	for i := range a.own {
		a.own[i].t = imptable.New()
	}
	return a
}

// newAggregator returns an empty aggregator with no impressions yet.
func newAggregator(opts Options) *Aggregator {
	opts = opts.withDefaults()
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	a := &Aggregator{
		opts:     opts,
		camps:    make([]campShard, size),
		mask:     uint32(size - 1),
		dwellObs: obs.NewHistogram(opts.DwellBounds...),

		boundsJSON: appendBoundsJSON(nil, opts.DwellBounds),
	}
	for i := range a.camps {
		a.camps[i].camps = make(map[string]*campaign)
	}
	a.dir.Init(func(c *campaign) string { return c.id })
	a.windows = windowRing{width: opts.Window, max: int64(opts.MaxWindows)}
	return a
}

// Attach returns a new aggregator fed by store's first-seen events and
// duplicates, as qtag-server wires its own: the way to count what a
// store takes in. Its open impressions are the store's impression
// records: each first-seen event is folded into the record the store
// found it new in, under the store shard's lock, and the TTL sweep and
// the MaxOpen cap close the store's records. The aggregator's Shards
// sizes its campaign shards only. Call it before the store ingests, once
// per store.
func Attach(store *beacon.Store, opts Options) *Aggregator {
	a := newAggregator(opts)
	a.store = store
	store.AttachFold(a.opts.Now, a.apply)
	store.AddDupObserver(a.ObserveDup)
	return a
}

// fold is the pass's fold: the campaign × format row, site type × OS
// slice and score row updates for what the event changed, under the
// campaign shard's lock (nested in the impression's table's, always).
func (a *Aggregator) fold(e beacon.Event, c change) {
	cs := a.shard(e.CampaignID)
	cs.mu.Lock()
	camp := a.campaignLocked(cs, e.CampaignID)
	if len(camp.rows) == 0 { // its first event: a duplicate may have opened the record
		a.campaigns.Add(1)
	}
	camp.at.Dirty()
	camp.scoreAt.Dirty()
	if c.Moved() {
		// Move the impression's pre-event contributions first; the deltas
		// from this event then land on the new row only, never both.
		camp.migrate(&c)
		camp.regap(&c)
	}
	r := camp.row(c.To)
	if c.Created {
		r.impressions++
	}
	if c.ServedFirst {
		r.served++
		camp.slices.cell(e.Meta.SiteType, e.Meta.OS, false).served++
		cs.slices.cell(e.Meta.SiteType, e.Meta.OS, false).served++
	}
	if c.LoadedFirst || c.ViewedFirst {
		name, _ := c.Table.SourceAt(c.Entry, c.Src) // the table's copy, not the event's
		src := beacon.Source(name)
		sc := r.srcCounts(src)
		sl := camp.slices.cell(e.Meta.SiteType, e.Meta.OS, false).solution(src)
		sum := cs.slices.cell(e.Meta.SiteType, e.Meta.OS, false).solution(src)
		if c.LoadedFirst {
			sc.measured++
			sl.measured++
			sum.measured++
			if *c.Flags&viewed == 0 {
				sc.notViewed++
			}
		}
		if c.ViewedFirst {
			sc.viewed++
			sl.viewed++
			sum.viewed++
			if *c.Flags&loaded != 0 {
				sc.notViewed--
			}
		}
	}
	if c.Paired {
		camp.dwellHist(string(e.Source), a.opts.DwellBounds).Observe(c.Dwell)
	}
	camp.foldScore(e, &c)
	cs.mu.Unlock()

	if c.Paired {
		a.dwellObs.ObserveDuration(c.Dwell)
		a.dwellPair.Add(1)
	}
	a.winMu.Lock()
	a.windows.observe(c.Now, e.CampaignID, c.Created, c.ViewedFirst)
	a.winMu.Unlock()
}

// Windows returns the retained rollup windows, oldest first.
func (a *Aggregator) Windows() []WindowSnapshot {
	a.winMu.Lock()
	defer a.winMu.Unlock()
	return a.windows.snapshot()
}

// shard returns the campaign shard that holds id.
func (a *Aggregator) shard(id string) *campShard { return &a.camps[beacon.HashID(id)&a.mask] }

// campaignLocked returns (opening if needed, under a clone of id) the
// record of campaign id. Caller holds cs.mu.
func (a *Aggregator) campaignLocked(cs *campShard, id string) *campaign {
	c := cs.camps[id]
	if c == nil {
		c = &campaign{id: strings.Clone(id)}
		cs.camps[c.id] = c
		a.dir.Add(c)
	}
	return c
}

// row returns (creating, in format order, if needed) the campaign's row
// for format. Caller holds the shard lock. A new row clones format: it
// comes from the event in hand.
func (c *campaign) row(format string) *row {
	i, ok := slices.BinarySearchFunc(c.rows, format, func(r *row, f string) int { return strings.Compare(r.format, f) })
	if !ok {
		c.rows = slices.Insert(c.rows, i, &row{format: strings.Clone(format)})
	}
	return c.rows[i]
}

// find returns a row's counters for s, or nil if s never reported on it.
func (r *row) find(s beacon.Source) *srcCounts {
	for i := range r.src {
		if r.src[i].source == s {
			return &r.src[i]
		}
	}
	return nil
}

// srcCounts returns (creating if needed) a row's per-source counters; s
// must be owned (a name from imptable.Table.SourceAt is). The pointer is
// good until the next srcCounts or drop call on the same row.
func (r *row) srcCounts(s beacon.Source) *srcCounts {
	if sc := r.find(s); sc != nil {
		return sc
	}
	r.src = append(r.src, srcCounts{source: s})
	return &r.src[len(r.src)-1]
}

// drop removes a row's counters for s.
func (r *row) drop(s beacon.Source) {
	r.src = slices.DeleteFunc(r.src, func(sc srcCounts) bool { return sc.source == s })
}

// dwellHist returns (creating, in source order, if needed) the
// campaign's dwell histogram for source, under a clone of it. Caller
// holds the shard lock.
func (c *campaign) dwellHist(source string, bounds []float64) *DwellHist {
	i, ok := slices.BinarySearchFunc(c.dwell, source, func(d dwellRow, s string) int { return strings.Compare(d.source, s) })
	if !ok {
		c.dwell = slices.Insert(c.dwell, i, dwellRow{strings.Clone(source), NewDwellHist(bounds)})
	}
	return c.dwell[i].h
}

// migrate moves one impression's contributions as they stood before the
// event in hand from its format row to the one the event moved it to —
// triggered when a late event carries a lexicographically smaller
// format. Caller holds the shard lock.
func (c *campaign) migrate(ch *change) {
	src := c.row(ch.From)
	dst := c.row(ch.To)
	src.impressions--
	dst.impressions++
	if ch.Entry.Served && !ch.ServedFirst {
		src.served--
		dst.served++
	}
	for i, n := 0, ch.Table.Sources(ch.Entry); i < n; i++ {
		name, flagsp := ch.Table.SourceAt(ch.Entry, i)
		flags := *flagsp
		if flagsp == ch.Flags { // the event's own solution
			flags = ch.Before
		}
		if flags&(loaded|viewed) == 0 {
			continue
		}
		fc, tc := src.srcCounts(beacon.Source(name)), dst.srcCounts(beacon.Source(name))
		if flags&loaded != 0 {
			fc.measured--
			tc.measured++
		}
		switch {
		case flags&viewed != 0:
			fc.viewed--
			tc.viewed++
		case flags&loaded != 0:
			fc.notViewed--
			tc.notViewed++
		}
		// Counters are made with a count at one, so only a migration drains
		// them: drop what it drained, and the row lists exactly the
		// solutions some impression on it has reported — whatever order the
		// events came in.
		if fc.measured == 0 && fc.viewed == 0 && fc.notViewed == 0 {
			src.drop(fc.source)
		}
	}
	// A drained row is garbage only if nothing else contributes to it;
	// impressions is the invariant total, so zero means empty.
	if src.impressions == 0 {
		c.rows = slices.DeleteFunc(c.rows, func(r *row) bool { return r == src })
	}
}

// OpenImpressions returns how many impressions currently hold working
// state — the quantity TTL eviction bounds — in one atomic load.
func (a *Aggregator) OpenImpressions() int { return int(a.open.Load()) }

// Updates returns how many first-seen events have been folded in.
func (a *Aggregator) Updates() int64 { return a.updates.Load() }

// Evicted returns how many impression states eviction has dropped
// (TTL sweeps plus MaxOpen pressure evictions).
func (a *Aggregator) Evicted() int64 { return a.evicted.Load() }

// PressureEvicted returns the subset of evictions forced by the MaxOpen
// working-set cap rather than the TTL sweep.
func (a *Aggregator) PressureEvicted() int64 { return a.pressureEv.Load() }

// Campaigns returns how many distinct campaigns have been observed.
func (a *Aggregator) Campaigns() int { return int(a.campaigns.Load()) }

// DwellPairs returns how many in-view/out-of-view cycles completed.
func (a *Aggregator) DwellPairs() int64 { return a.dwellPair.Load() }

// RegisterMetrics exports the aggregation layer on a metrics registry:
// throughput, the memory-bounding gauges, and the global dwell
// histogram (per-campaign dwell lives on GET /report).
func (a *Aggregator) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_aggregate_updates_total", "First-seen events folded into the streaming accumulators.", a.updates.Load)
	r.CounterFunc("qtag_aggregate_evicted_total", "Impression working states dropped by TTL eviction.", a.evicted.Load)
	r.CounterFunc("qtag_aggregate_pressure_evicted_total", "Impression working states evicted early by the MaxOpen cap.", a.pressureEv.Load)
	r.CounterFunc("qtag_aggregate_dwell_pairs_total", "Completed in-view/out-of-view dwell cycles.", a.dwellPair.Load)
	r.GaugeFunc("qtag_aggregate_open_impressions", "Impressions currently holding working state (bounded by TTL eviction).",
		func() float64 { return float64(a.OpenImpressions()) })
	r.GaugeFunc("qtag_aggregate_campaign_rows", "Campaign × format accumulator rows.",
		func() float64 { return float64(a.rowCount()) })
	// The name is kept from when the store counted campaigns: scrapes
	// and dashboards know it by it.
	r.GaugeFunc("qtag_store_campaigns", "Distinct campaigns observed.",
		func() float64 { return float64(a.Campaigns()) })
	r.RegisterHistogram("qtag_aggregate_dwell_seconds", "In-view dwell per completed cycle, all campaigns.", a.dwellObs)
}

func (a *Aggregator) rowCount() int {
	n := 0
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for _, c := range cs.camps {
			n += len(c.rows)
		}
		cs.mu.Unlock()
	}
	return n
}
