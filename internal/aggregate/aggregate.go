// Package aggregate maintains streaming per-campaign viewability
// accumulators — the campaign-level product the paper's §4–§5 report:
// for every campaign × ad format, how many impressions were viewed,
// measured-but-not-viewed, and not measured by each solution, plus
// in-view dwell-time histograms from paired in-view/out-of-view beacons.
//
// The aggregator is fed by the beacon store's first-seen-event observer
// (Store.AddObserver), so it inherits the store's idempotency: duplicate
// beacons, HTTP retries and overlapping WAL replays never reach it, and
// rebuilding it from a WAL replay on boot reproduces exactly the state a
// continuously-running process would hold. Every update is incremental —
// serving a report never scans raw events — and per-impression working
// state is evicted on a TTL so memory stays bounded under unbounded
// traffic while the campaign counters keep their all-time totals.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
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

// An open impression is the bounded working state for one (campaign,
// impression id): enough to classify status transitions and pair dwell
// cycles, nothing more — an imptable.Entry, 96 bytes without a pointer
// (DESIGN.md §10, "Observer layout"). It is dropped by TTL eviction once
// the impression goes idle; the campaign counters it contributed to stay.
// Its format is the current format bucket (see formatBucket), and each
// solution's progress is these flags.
const (
	srcLoaded uint8 = 1 << iota
	srcViewed
)

// aggShard is one lock-striped partition of the open impressions.
type aggShard struct {
	mu   sync.Mutex
	open *imptable.Table
}

// rowKey addresses one campaign × format accumulator row.
type rowKey struct {
	Campaign string
	Format   string
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
	key         rowKey // the map key, with strings the row owns
	impressions int64  // distinct impressions observed
	served      int64  // impressions with a served event
	src         []srcCounts
}

// dwellKey addresses one campaign × source dwell histogram. Dwell is
// not sliced by format: an impression may migrate format buckets when a
// late event carries a different format, and histograms cannot be
// un-observed.
type dwellKey struct {
	Campaign string
	Source   string
}

// campShard is one lock-striped partition of the campaign table. A
// campaign's rows and dwell histograms all live in one shard, so a
// format migration is atomic under a single lock.
type campShard struct {
	mu    sync.Mutex
	rows  map[rowKey]*row
	dwell map[dwellKey]*DwellHist
}

// Aggregator is the streaming accumulator set. All methods are safe for
// concurrent use. Feed it through beacon.Store.AddObserver so it only
// ever sees first-seen events.
type Aggregator struct {
	opts   Options
	shards []aggShard  // open impressions, by hash(impression id)
	camps  []campShard // accumulators, by hash(campaign)
	mask   uint32

	winMu   sync.Mutex
	windows windowRing

	// boundsJSON is opts.DwellBounds as every dwell row of the report
	// carries it, encoded once instead of once per histogram per render.
	boundsJSON []byte

	updates    atomic.Int64 // events folded in
	evicted    atomic.Int64 // impression states dropped (TTL + pressure)
	pressureEv atomic.Int64 // the subset evicted by the MaxOpen cap
	openCount  atomic.Int64 // open impression states, across all shards
	dwellObs   *obs.Histogram
	dwellPair  atomic.Int64 // completed in-view/out-of-view pairs
}

// New returns an empty aggregator.
func New(opts Options) *Aggregator {
	opts = opts.withDefaults()
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	a := &Aggregator{
		opts:     opts,
		shards:   make([]aggShard, size),
		camps:    make([]campShard, size),
		mask:     uint32(size - 1),
		dwellObs: obs.NewHistogram(opts.DwellBounds...),

		boundsJSON: appendBoundsJSON(nil, opts.DwellBounds),
	}
	for i := range a.shards {
		a.shards[i].open = imptable.New()
	}
	for i := range a.camps {
		a.camps[i].rows = make(map[rowKey]*row)
		a.camps[i].dwell = make(map[dwellKey]*DwellHist)
	}
	a.windows.init(opts.Window, opts.MaxWindows)
	return a
}

// formatBucket decides which format row an impression belongs to: the
// lexicographically smallest non-empty format seen across its events,
// or "" when no event carried one. The rule is order-independent, which
// is what makes streaming aggregation equal batch recompute when events
// of one impression disagree on format (they should not, but the wire
// does not enforce it).
func formatBucket(current, incoming string) string {
	if incoming == "" {
		return current
	}
	if current == "" || incoming < current {
		return incoming
	}
	return current
}

// Observe folds one first-seen event into the accumulators. It is
// designed to be installed as a beacon.Store observer: the caller
// guarantees the event is not a duplicate, and that events of one
// impression arrive serialized (the store's shard lock does both).
// Events that fail validation are ignored — the store never emits them.
func (a *Aggregator) Observe(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	now := a.opts.Now()
	// The key is built in a stack buffer; the table copies it when it opens
	// the impression.
	var kb [96]byte
	key := e.AppendImpressionKey(kb[:0])
	sh := &a.shards[beacon.HashID(e.ImpressionID)&a.mask]

	sh.mu.Lock()
	st, created := sh.open.Open(key, now.UnixNano())

	// Work out every transition under the impression lock, then apply
	// them to the campaign shard (nested imp→camp lock order, always).
	oldFormat := sh.open.Format(st)
	format := formatBucket(oldFormat, e.Meta.Format)
	migrated := !created && format != oldFormat

	cs := &a.camps[beacon.HashID(e.CampaignID)&a.mask]
	cs.mu.Lock()
	if migrated {
		// Move the impression's pre-event contributions first; the deltas
		// from this event then land on the new row only, never both.
		cs.migrate(sh.open, st, e.CampaignID, oldFormat, format)
	}
	if format != oldFormat {
		sh.open.SetFormat(st, format)
	}

	var servedFirst, loadedFirst, viewedFirst bool
	var dwell time.Duration
	var paired bool
	var si int
	var src *uint8
	switch e.Type {
	case beacon.EventServed:
		servedFirst = !st.Served
		st.Served = true
	case beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView:
		si, src, _ = sh.open.Source(st, string(e.Source))
		switch e.Type {
		case beacon.EventLoaded:
			loadedFirst = *src&srcLoaded == 0
			*src |= srcLoaded
		case beacon.EventInView:
			viewedFirst = *src&srcViewed == 0
			*src |= srcViewed
			dwell, paired = sh.open.InView(st, si, e.Seq, e.At)
		case beacon.EventOutOfView:
			dwell, paired, _ = sh.open.OutOfView(st, si, e.Seq, e.At)
		}
	}

	r := cs.row(rowKey{e.CampaignID, format})
	if created {
		r.impressions++
	}
	if servedFirst {
		r.served++
	}
	if loadedFirst || viewedFirst {
		name, _ := sh.open.SourceAt(st, si) // the table's copy, not the event's
		sc := r.srcCounts(beacon.Source(name))
		if loadedFirst {
			sc.measured++
			if *src&srcViewed == 0 {
				sc.notViewed++
			}
		}
		if viewedFirst {
			sc.viewed++
			if *src&srcLoaded != 0 {
				sc.notViewed--
			}
		}
	}
	if paired {
		cs.dwellHist(dwellKey{e.CampaignID, string(e.Source)}, a.opts.DwellBounds).Observe(dwell)
	}
	cs.mu.Unlock()
	if created {
		a.openCount.Add(1)
		// Over the cap, the coldest impression of this shard goes — never the
		// one just opened (evicting the one impression we know is active
		// would be pure churn), so a shard holding only that one evicts
		// nothing this round and the cap is enforced approximately: the
		// working set converges back under MaxOpen as traffic spreads over
		// the shards. Frozen-totals semantics match TTL eviction exactly.
		if a.opts.MaxOpen > 0 && a.openCount.Load() > int64(a.opts.MaxOpen) && sh.open.EvictOldest(st) {
			a.openCount.Add(-1)
			a.evicted.Add(1)
			a.pressureEv.Add(1)
		}
	}
	sh.mu.Unlock()

	if paired {
		a.dwellObs.ObserveDuration(dwell)
		a.dwellPair.Add(1)
	}
	a.updates.Add(1)
	a.winMu.Lock()
	a.windows.observe(now, e.CampaignID, created, viewedFirst)
	a.winMu.Unlock()
}

// Windows returns the retained rollup windows, oldest first.
func (a *Aggregator) Windows() []WindowSnapshot {
	a.winMu.Lock()
	defer a.winMu.Unlock()
	return a.windows.snapshot()
}

// row returns (creating if needed) the accumulator row. Caller holds
// the shard lock. A new row clones its key: k's strings come from the
// event in hand.
func (c *campShard) row(k rowKey) *row {
	r := c.rows[k]
	if r == nil {
		k = rowKey{strings.Clone(k.Campaign), strings.Clone(k.Format)}
		r = &row{key: k}
		c.rows[k] = r
	}
	return r
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
// good until the next srcCounts call on the same row.
func (r *row) srcCounts(s beacon.Source) *srcCounts {
	if sc := r.find(s); sc != nil {
		return sc
	}
	r.src = append(r.src, srcCounts{source: s})
	return &r.src[len(r.src)-1]
}

// dwellHist returns (creating if needed) the campaign × source dwell
// histogram, under a clone of k. Caller holds the shard lock.
func (c *campShard) dwellHist(k dwellKey, bounds []float64) *DwellHist {
	h := c.dwell[k]
	if h == nil {
		h = NewDwellHist(bounds)
		c.dwell[dwellKey{strings.Clone(k.Campaign), strings.Clone(k.Source)}] = h
	}
	return h
}

// migrate moves one impression's accumulated contributions between
// format rows of the same campaign — triggered when a late event
// carries a lexicographically smaller format. Caller holds the shard
// lock; both rows live in it because they share the campaign.
func (c *campShard) migrate(open *imptable.Table, st *imptable.Entry, campaign, from, to string) {
	src := c.row(rowKey{campaign, from})
	dst := c.row(rowKey{campaign, to})
	src.impressions--
	dst.impressions++
	if st.Served {
		src.served--
		dst.served++
	}
	for i, n := 0, open.Sources(st); i < n; i++ {
		name, flags := open.SourceAt(st, i)
		if *flags == 0 {
			continue
		}
		fc, tc := src.srcCounts(beacon.Source(name)), dst.srcCounts(beacon.Source(name))
		if *flags&srcLoaded != 0 {
			fc.measured--
			tc.measured++
		}
		switch {
		case *flags&srcViewed != 0:
			fc.viewed--
			tc.viewed++
		case *flags&srcLoaded != 0:
			fc.notViewed--
			tc.notViewed++
		}
	}
	// A drained row is garbage only if nothing else contributes to it;
	// impressions is the invariant total, so zero means empty.
	if src.impressions == 0 {
		delete(c.rows, rowKey{campaign, from})
	}
}

// Sweep drops the working state of every impression idle for at least
// the TTL as of now, returning how many were evicted. The campaign
// counters keep their totals; only the dedup/pairing state goes, which
// bounds memory to TTL × arrival rate open impressions. Unpaired
// in-view cycles on an evicted impression never produce a dwell sample.
func (a *Aggregator) Sweep(now time.Time) int {
	if a.opts.TTL < 0 {
		return 0
	}
	evicted := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		evicted += sh.open.Sweep(now.UnixNano(), a.opts.TTL)
		sh.mu.Unlock()
	}
	a.evicted.Add(int64(evicted))
	a.openCount.Add(-int64(evicted))
	return evicted
}

// OpenImpressions returns how many impressions currently hold working
// state — the quantity TTL eviction bounds. It reads the counter kept on
// open, sweep and pressure eviction, so every /report and /metrics
// scrape costs one atomic load, not a pass over the shard locks.
func (a *Aggregator) OpenImpressions() int { return int(a.openCount.Load()) }

// Updates returns how many first-seen events have been folded in.
func (a *Aggregator) Updates() int64 { return a.updates.Load() }

// Evicted returns how many impression states eviction has dropped
// (TTL sweeps plus MaxOpen pressure evictions).
func (a *Aggregator) Evicted() int64 { return a.evicted.Load() }

// PressureEvicted returns the subset of evictions forced by the MaxOpen
// working-set cap rather than the TTL sweep.
func (a *Aggregator) PressureEvicted() int64 { return a.pressureEv.Load() }

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
	r.RegisterHistogram("qtag_aggregate_dwell_seconds", "In-view dwell per completed cycle, all campaigns.", a.dwellObs)
}

func (a *Aggregator) rowCount() int {
	n := 0
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		n += len(cs.rows)
		cs.mu.Unlock()
	}
	return n
}
