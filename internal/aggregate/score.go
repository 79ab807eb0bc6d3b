package aggregate

import (
	"slices"
	"strings"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/jsonenc"
	"qtag/internal/viewability"
)

// The scoring half of a campaign record (DESIGN.md §15): per solution —
// SourceDSP for the served events — the counts internal/detect scores at
// read time and the lifecycle violations the report lists. fold keeps
// them beside the format rows, under the same shard lock, and ObserveDup
// adds the duplicate submissions. Every count is commutative — it depends
// only on the final event set and the duplicates, never on arrival order
// — so a record rebuilt by WAL replay equals one that watched the traffic
// live, and a score row, like a format row, is never dropped.

// SourceDSP labels the score row of served events: they carry no
// measurement source, but their rate and duplicates are still scored.
const SourceDSP = "dsp"

const (
	// RateSlots is the size of a score row's event-time rate ring. Bucket
	// indices alias into it modulo its size, which keeps memory constant
	// and — aliasing depending only on the event's time — the fold
	// order-insensitive.
	RateSlots = 64
	// RateBucket is the width of a rate bucket.
	RateBucket = time.Second
	// MaxSlots caps a score row's placement map; in-views on placements
	// beyond it count as SlotOther.
	MaxSlots = 64
)

const (
	dwellZeroMax  = 100 * time.Millisecond // a paired dwell at or under this is zero-dwell
	dwellExactTol = 50 * time.Millisecond  // |dwell − dwellTarget| at or under this is exactly-threshold
	gapTolerance  = 150 * time.Millisecond // tag sampling slack on a loaded→in-view gap: 1.5 windows of 100 ms
)

// dwellTarget is the viewability-standard dwell the "exactly at
// threshold" class keys on: the MRC display standard's 1 s, which the
// paper's tags implement.
var dwellTarget = viewability.StandardCriteria(viewability.Display).Dwell

// A solution's progress on an open impression is the pass's loaded and
// viewed bits plus four of the fold's own: two net-adjusting violation
// flags — a violation counted on the score row is un-counted if the
// missing lifecycle event arrives late — and the class of its
// loaded→in-view gap, re-counted when a late event moves the format. So
// the final counts depend only on the final event set.
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

// Score is one campaign × solution's scoring state. Every field is a
// commutative count or a min/max. It is read only inside the walks that
// hand it out (ScoreRows, AppendScoresJSON), under its shard's lock.
type Score struct {
	Source string // owned

	Events      int64 // first-seen events folded in
	Dups        int64 // duplicate submissions the store absorbed
	Impressions int64 // distinct impressions this source reported on

	// Rate: the ring of event-time bucket counts, the largest of them
	// (kept as they grow) and the observed bucket index extent, valid
	// once Events > 0.
	Slots      [RateSlots]int64
	Peak       int64
	MinB, MaxB int64

	// Dwell: completed in-view/out-of-view pairs, and those of them at
	// ~0 and at exactly the standard's dwell.
	DwellPairs, DwellZero, DwellExact int64

	// The lifecycle violations (srcNoLoadCounted, srcGapUnder1s):
	// impressions with no served event, or with an in-view but no loaded;
	// out-of-views with no in-view; in-views sooner after loaded than the
	// format's standard dwell (less gapTolerance); pairs out of the
	// protocol's order.
	NoServed, NoLoaded, OrphanOutOfView, ImpossibleDwell, OutOfOrder int64

	// Geometry: events carrying an ad size and, of those, 1×1 or 0×0
	// ones; in-views by placement — the largest placement count (kept as
	// they grow), all of them, and those on placements beyond MaxSlots.
	Sized, Pixel                  int64
	SlotTop, SlotTotal, SlotOther int64
	slotViews                     map[string]*int64
}

// sourceLabel maps an event source to its score row's label.
func sourceLabel(s beacon.Source) string {
	if s == "" {
		return SourceDSP
	}
	return string(s)
}

// isPixelSize reports whether an ad size is degenerate inventory — the
// classic 1×1 (or 0×0) tracking-pixel stuffing signature.
func isPixelSize(size string) bool {
	return size == "1x1" || size == "0x0" || size == "1×1"
}

// score returns (creating, in source order, if needed) the campaign's
// score row for source, under a clone of it. Caller holds the shard lock.
func (c *campaign) score(source string) *Score {
	i, ok := slices.BinarySearchFunc(c.scores, source, func(s *Score, src string) int { return strings.Compare(s.Source, src) })
	if !ok {
		c.scores = slices.Insert(c.scores, i, &Score{Source: strings.Clone(source)})
	}
	return c.scores[i]
}

// foldScore is the scoring share of fold: the event's solution's score
// row updates for what the event changed. Every solution with flags on
// the impression has its row: the fold that gave it flags made it. Caller
// holds the shard lock.
func (c *campaign) foldScore(e beacon.Event, ch *change) {
	s := c.score(sourceLabel(e.Source))
	s.Events++
	s.observeRate(e.At.UnixNano()/int64(RateBucket), s.Events == 1)
	if e.Meta.AdSize != "" {
		s.Sized++
		if isPixelSize(e.Meta.AdSize) {
			s.Pixel++
		}
	}

	if ch.Flags == nil { // served
		if ch.ServedFirst {
			s.Impressions++
			// The served event arrived (possibly late): un-count every
			// solution's beacons-without-served violation.
			for i, n := 0, ch.Table.Sources(ch.Entry); i < n; i++ {
				name, ss := ch.Table.SourceAt(ch.Entry, i)
				if *ss&srcNoServeCounted != 0 {
					*ss &^= srcNoServeCounted
					c.score(name).NoServed--
				}
			}
		}
		return
	}
	ss := ch.Flags
	if ch.Fresh {
		s.Impressions++
		if !ch.Entry.Served {
			*ss |= srcNoServeCounted
			s.NoServed++
		}
	}
	if ch.LoadedFirst && *ss&srcNoLoadCounted != 0 {
		*ss &^= srcNoLoadCounted
		s.NoLoaded--
	}
	if ch.ViewedFirst && *ss&loaded == 0 {
		*ss |= srcNoLoadCounted
		s.NoLoaded++
	}
	if e.Type == beacon.EventInView && e.Meta.Slot != "" {
		s.addSlotView(e.Meta.Slot)
	}
	switch {
	case ch.Paired:
		if e.Type == beacon.EventInView {
			s.OrphanOutOfView-- // the out-of-view that was waiting is an orphan no longer
		}
		if ch.Reversed {
			s.OutOfOrder++
		}
		s.observeDwell(ch.Dwell)
	case ch.Orphan:
		s.OrphanOutOfView++
	}
	if ch.GapPaired {
		switch short := ch.Gap + gapTolerance; {
		case ch.Gap < 0:
			s.OutOfOrder++
		case short < time.Second:
			*ss |= srcGapUnder1s | srcGapUnder2s
		case short < 2*time.Second:
			*ss |= srcGapUnder2s
		}
		if *ss&dwellBit(ch.To) != 0 {
			s.ImpossibleDwell++
		}
	}
}

// regap re-counts the impossible dwells of an impression's solutions
// under the format the event moved it to, before the event's own gap is
// set. Caller holds the shard lock.
func (c *campaign) regap(ch *change) {
	from, to := dwellBit(ch.From), dwellBit(ch.To)
	for i, n := 0, ch.Table.Sources(ch.Entry); i < n && from != to; i++ {
		name, ss := ch.Table.SourceAt(ch.Entry, i)
		switch was, now := *ss&from != 0, *ss&to != 0; {
		case now && !was:
			c.score(name).ImpossibleDwell++
		case was && !now:
			c.score(name).ImpossibleDwell--
		}
	}
}

// observeRate folds an event-time bucket index into the ring.
func (s *Score) observeRate(b int64, first bool) {
	idx := b % RateSlots
	if idx < 0 {
		idx += RateSlots
	}
	s.Slots[idx]++
	s.Peak = max(s.Peak, s.Slots[idx])
	if first {
		s.MinB, s.MaxB = b, b
		return
	}
	s.MinB, s.MaxB = min(s.MinB, b), max(s.MaxB, b)
}

// observeDwell classifies one completed in-view/out-of-view pair.
func (s *Score) observeDwell(dw time.Duration) {
	s.DwellPairs++
	if dw <= dwellZeroMax {
		s.DwellZero++
		return
	}
	diff := dw - dwellTarget
	if diff < 0 {
		diff = -diff
	}
	if diff <= dwellExactTol {
		s.DwellExact++
	}
}

// addSlotView counts an in-view against its placement, folding overflow
// placements into SlotOther once the map is full. Under the cap the fold
// is order-insensitive; over it, which slots are named and which are
// "other" depends on first-arrival order — acceptable because the
// concentration ratio the score uses barely moves, and honest inventory
// sits far below the cap anyway.
//
// The count is behind a pointer so that only a new placement is ever
// assigned, under a clone: assigning to a string key that is already in
// a map stores the new key string too, and slot is the event's, which
// is valid only while its request is handled.
func (s *Score) addSlotView(slot string) {
	if s.slotViews == nil {
		s.slotViews = make(map[string]*int64)
	}
	n := s.slotViews[slot]
	if n == nil {
		if len(s.slotViews) >= MaxSlots {
			s.SlotOther++
			return
		}
		n = new(int64)
		s.slotViews[strings.Clone(slot)] = n
	}
	*n++
	s.SlotTop = max(s.SlotTop, *n)
	s.SlotTotal++
}

// ObserveDup counts one duplicate submission on its campaign × solution
// score row. Attach installs it as the store's duplicate observer:
// duplicates are the one signal idempotent ingest hides from every
// counter downstream, and replayed captured beacons are nothing but
// duplicates. A duplicate of a campaign no first-seen event has reached
// opens its record with that score row alone — no format row, and no
// count in Campaigns.
func (a *Aggregator) ObserveDup(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	cs := a.shard(e.CampaignID)
	cs.mu.Lock()
	c := a.campaignLocked(cs, e.CampaignID)
	c.scoreAt.Dirty()
	c.score(sourceLabel(e.Source)).Dups++
	cs.mu.Unlock()
	a.dups.Add(1)
}

// DupEvents returns how many duplicate submissions have been folded in.
func (a *Aggregator) DupEvents() int64 { return a.dups.Load() }

// ScoreRows calls f with every campaign's id and score rows, in source
// order, under the campaign's shard lock; campaigns come in no order. f
// must not keep the rows.
func (a *Aggregator) ScoreRows(f func(id string, rows []*Score)) {
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for _, c := range cs.camps {
			f(c.id, c.scores)
		}
		cs.mu.Unlock()
	}
}

// AppendScoresJSON is the walk behind the fraud section of GET /report:
// for each campaign of the directory, in id order, it appends to dst the
// campaign's score rows as enc appends them, comma-separated — or, for a
// campaign no event or duplicate has touched since r's previous render,
// copies them from that body — and to *flagged, a scratch buffer (reset
// here), the JSON string of the id of each campaign enc reported one of
// whose rows flagged. It takes each campaign's shard lock once and calls
// enc under it. It returns dst with the numbers of score rows and of
// flagged campaigns.
func (a *Aggregator) AppendScoresJSON(dst []byte, flagged *[]byte, r *jsonenc.Render,
	enc func(dst []byte, id string, rows []*Score) ([]byte, bool)) ([]byte, int, int) {
	a.walkMu.Lock()
	defer a.walkMu.Unlock()
	fl, rows, nflagged := (*flagged)[:0], 0, 0
	for _, c := range a.dir.Order() {
		cs := a.shard(c.id)
		cs.mu.Lock()
		if rows > 0 {
			dst = append(dst, ',') // every record holds a score row: the fold or duplicate that opened it made one
		}
		lo := len(dst)
		var ok bool
		if dst, ok = c.scoreAt.Copy(dst, r); !ok {
			dst, c.flagged = enc(dst, c.id, c.scores)
		}
		c.scoreAt.Wrote(r, lo, len(dst))
		rows += len(c.scores)
		hit := c.flagged
		cs.mu.Unlock()
		if hit {
			if nflagged > 0 {
				fl = append(fl, ',')
			}
			fl = jsonenc.AppendString(fl, c.id)
			nflagged++
		}
	}
	*flagged = fl
	return dst, rows, nflagged
}
