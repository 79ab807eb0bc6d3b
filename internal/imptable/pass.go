package imptable

import (
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
)

// The bits of a solution's flags (Table.Source) a Pass sets. The other
// six are its fold's.
const (
	Loaded uint8 = 1 << iota // the solution's loaded beacon has arrived
	Viewed                   // one of its in-views has
)

// PassOptions shapes a Pass, as the owning observer's Options do.
type PassOptions struct {
	Shards  int              // rounded up to a power of two; impressions go by beacon.HashID, as in the store
	TTL     time.Duration    // Sweep drops an impression idle this long; < 0: never
	MaxOpen int              // cap on open impressions across the shards; 0: none
	Now     func() time.Time // the arrival clock
}

// Change is what one first-seen event did to its impression, worked out
// once by the Pass for its fold. The pass's state — Entry.Served, the
// Loaded and Viewed bits, the pairing stamps, the format — already holds
// the event when the fold runs, so the fold reads each transition here
// and never re-derives one from those bits. What stood
// before the event is Entry.Served unless ServedFirst, and each
// solution's flags except the event's own, which were Before.
type Change struct {
	Now         time.Time // the arrival clock, read once for the event
	Table       *Table
	Entry       *Entry
	Created     bool   // the impression was not open: Entry is new
	ServedFirst bool   // a served event, the impression's first
	Flags       *uint8 // a solution's beacon: that solution's flags; nil for a served event
	Src         int    // …and its position (Table.SourceAt)
	Before      uint8  // *Flags before the event; 0 when Fresh
	Fresh       bool   // the solution's first beacon on the impression
	LoadedFirst bool   // the event set the solution's Loaded bit
	ViewedFirst bool   // …its Viewed bit
	Dwell       time.Duration
	Paired      bool          // the event completed an in-view/out-of-view cycle of Dwell
	Reversed    bool          // …whose out-of-view is the earlier: Dwell is 0
	Orphan      bool          // an out-of-view whose in-view has not arrived
	Gap         time.Duration // the solution's seq-0 in-view time less its loaded's; < 0: the in-view is the earlier
	GapPaired   bool          // the event completed that loaded/in-view pair: Gap is set
	From, To    string        // the format bucket (formatBucket) before and after the event
}

// Moved reports whether the event moved an open impression to another
// format bucket: what it had contributed under From belongs under To.
func (c *Change) Moved() bool { return !c.Created && c.From != c.To }

// A Fold is the observer behind a Pass: it applies a first-seen event to
// the observer's accumulators, under the lock of the impression's pass
// shard. It may change its own bits of a solution's flags and must leave
// the rest of the entry alone.
type Fold func(e beacon.Event, c Change)

// Pass is an observer's open-impression working set: per first-seen
// event it validates, reads the clock, hashes the key and opens the
// impression, updates its state and runs the fold. All methods are safe
// for concurrent use.
type Pass struct {
	opts   PassOptions
	shards []passShard
	mask   uint32
	fold   Fold

	updates    atomic.Int64 // events folded
	open       atomic.Int64 // open impressions, across the shards
	evicted    atomic.Int64 // impressions dropped (TTL + pressure)
	pressureEv atomic.Int64 // the subset dropped by the MaxOpen cap
}

// passShard is one lock-striped partition of the open impressions.
type passShard struct {
	mu sync.Mutex
	t  *Table
}

// NewPass returns an empty pass that folds with f.
func NewPass(opts PassOptions, f Fold) *Pass {
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	p := &Pass{opts: opts, shards: make([]passShard, size), mask: uint32(size - 1), fold: f}
	for i := range p.shards {
		p.shards[i].t = New()
	}
	return p
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

// Observe folds one first-seen event. Install it as a beacon.Store
// observer: the caller guarantees the event is not a duplicate and that
// the events of one impression arrive serialized. An event that fails
// validation is ignored — the store never emits one.
func (p *Pass) Observe(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	c := Change{Now: p.opts.Now()}
	var kb [96]byte // the table copies the key when it opens the impression
	key := e.AppendImpressionKey(kb[:0])
	sh := &p.shards[beacon.HashID(e.ImpressionID)&p.mask]

	sh.mu.Lock()
	t := sh.t
	ent, created := t.Open(key, c.Now.UnixNano())
	c.Table, c.Entry, c.Created = t, ent, created
	c.From = t.Format(ent)
	if c.To = formatBucket(c.From, e.Meta.Format); c.To != c.From {
		t.SetFormat(ent, c.To)
	}
	if e.Type == beacon.EventServed {
		c.ServedFirst = !ent.Served
		ent.Served = true
	} else { // loaded, in-view or out-of-view: Validate lets nothing else by
		c.Src, c.Flags, c.Fresh = t.Source(ent, string(e.Source))
		c.Before = *c.Flags
		switch e.Type {
		case beacon.EventLoaded:
			c.LoadedFirst = c.Before&Loaded == 0
			*c.Flags |= Loaded
			if e.Seq == 0 {
				c.Gap, c.GapPaired = t.Gap(ent, c.Src, e.At, false)
			}
		case beacon.EventInView:
			c.ViewedFirst = c.Before&Viewed == 0
			*c.Flags |= Viewed
			if e.Seq == 0 { // first, so that the loaded stamp it pairs with frees its slot
				c.Gap, c.GapPaired = t.Gap(ent, c.Src, e.At, true)
			}
			c.Dwell, c.Paired, c.Reversed = t.InView(ent, c.Src, e.Seq, e.At)
		case beacon.EventOutOfView:
			c.Dwell, c.Paired, c.Reversed, c.Orphan = t.OutOfView(ent, c.Src, e.Seq, e.At)
		}
	}
	p.fold(e, c)
	if created {
		p.open.Add(1)
		// Over the cap, the coldest impression of this shard goes — never the
		// one just opened, so a shard holding only that one evicts nothing
		// and the cap is approximate: the working set converges back under
		// MaxOpen as traffic spreads over the shards.
		if p.opts.MaxOpen > 0 && p.open.Load() > int64(p.opts.MaxOpen) && t.EvictOldest(ent) {
			p.open.Add(-1)
			p.evicted.Add(1)
			p.pressureEv.Add(1)
		}
	}
	sh.mu.Unlock()
	p.updates.Add(1)
}

// Sweep drops every impression idle for at least the TTL as of now and
// returns how many it dropped; with a negative TTL it drops none.
func (p *Pass) Sweep(now time.Time) int {
	if p.opts.TTL < 0 {
		return 0
	}
	evicted := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		evicted += sh.t.Sweep(now.UnixNano(), p.opts.TTL)
		sh.mu.Unlock()
	}
	p.evicted.Add(int64(evicted))
	p.open.Add(-int64(evicted))
	return evicted
}

// Open returns how many impressions are open: a counter, not a pass over
// the shard locks.
func (p *Pass) Open() int { return int(p.open.Load()) }

// Len counts the open impressions shard by shard under each shard's lock:
// the audit Open's counter must agree with when the pass is quiescent.
func (p *Pass) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.t.Len()
		sh.mu.Unlock()
	}
	return n
}

// Updates returns how many events have been folded.
func (p *Pass) Updates() int64 { return p.updates.Load() }

// Evicted returns how many impressions the TTL and the cap have dropped.
func (p *Pass) Evicted() int64 { return p.evicted.Load() }

// PressureEvicted returns the subset of Evicted the MaxOpen cap dropped.
func (p *Pass) PressureEvicted() int64 { return p.pressureEv.Load() }
