package aggregate

import (
	"sync"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
)

// The bits of a solution's flags (imptable.Table.SourceAt) the pass sets.
// The other six are the fold's (score.go).
const (
	loaded uint8 = 1 << iota // the solution's loaded beacon has arrived
	viewed                   // one of its in-views has
)

// change is what one first-seen event did to its impression, worked out
// once by the pass for the fold. The record — Entry.Served, the loaded and
// viewed bits, the pairing stamps, the format — already holds the event
// when the fold runs, so the fold reads each transition here and never
// re-derives one from those bits. What stood before the event is
// Entry.Served unless ServedFirst, and each solution's flags except the
// event's own, which were Before.
type change struct {
	Now         time.Time // the arrival clock, read once for the event
	Table       *imptable.Table
	Entry       *imptable.Entry
	Created     bool   // the impression was not open: Entry is new or reopened
	ServedFirst bool   // a served event, the impression's first
	Flags       *uint8 // a solution's beacon: that solution's flags; nil for a served event
	Src         int    // …and its position (Table.SourceAt)
	Before      uint8  // *Flags before the event; 0 when Fresh
	Fresh       bool   // the solution's first beacon since the impression opened
	LoadedFirst bool   // the event set the solution's loaded bit
	ViewedFirst bool   // …its viewed bit
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
func (c *change) Moved() bool { return !c.Created && c.From != c.To }

// passShard is one lock-striped partition of a standalone aggregator's
// open impressions.
type passShard struct {
	mu sync.Mutex
	t  *imptable.Table
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

// Observe folds one first-seen event into a standalone aggregator (New),
// whose own tables hold its impressions. Install it as a beacon.Store
// observer: the caller guarantees the event is not a duplicate and that
// the events of one impression arrive serialized. An event that fails
// validation is ignored — the store never emits one. An attached
// aggregator (Attach) is fed by its store, never through Observe.
func (a *Aggregator) Observe(e beacon.Event) {
	if a.own == nil {
		panic("aggregate: Observe on an attached aggregator: its store feeds it")
	}
	if e.Validate() != nil {
		return
	}
	now := a.opts.Now()
	sh := &a.own[beacon.HashID(e.ImpressionID)&a.mask]
	sh.mu.Lock()
	a.apply(sh.t, admit(sh.t, &e, now), e, now)
	sh.mu.Unlock()
}

// admit opens e's impression in t, a standalone aggregator's table, as
// of now.
func admit(t *imptable.Table, e *beacon.Event, now time.Time) imptable.Admission {
	var kb [96]byte // the table copies the key when it opens the impression
	key := e.AppendImpressionKey(kb[:0])
	p, _ := t.Find(key, e.Type.Kind(), string(e.Source), e.Seq)
	return t.Admit(&p, key, now.UnixNano())
}

// apply folds the first-seen event the table t has just admitted, under
// the lock that guards t — the store shard's for an attached aggregator,
// which is the one lock the event takes before the campaign shard's — and
// applies the MaxOpen cap.
func (a *Aggregator) apply(t *imptable.Table, ad imptable.Admission, e beacon.Event, now time.Time) {
	c := transition(t, ad, &e, now)
	a.fold(e, c)
	if ad.Created {
		a.open.Add(1)
		// Over the cap, the coldest impression of this shard goes — never the
		// one just opened, so a shard holding only that one evicts nothing
		// and the cap is approximate: the working set converges back under
		// MaxOpen as traffic spreads over the shards.
		if a.opts.MaxOpen > 0 && a.open.Load() > int64(a.opts.MaxOpen) && t.EvictOldest(ad.Entry) {
			a.open.Add(-1)
			a.evicted.Add(1)
			a.pressureEv.Add(1)
		}
	}
	a.updates.Add(1)
}

// transition updates the record of e's impression — served, the loaded
// and viewed bits, the pairing stamps, the format — and returns what
// that changed.
func transition(t *imptable.Table, ad imptable.Admission, e *beacon.Event, now time.Time) change {
	ent := ad.Entry
	c := change{Now: now, Table: t, Entry: ent, Created: ad.Created}
	c.From = t.Format(ent)
	if c.To = formatBucket(c.From, e.Meta.Format); c.To != c.From {
		t.SetFormat(ent, c.To)
	}
	if e.Type == beacon.EventServed {
		c.ServedFirst = !ent.Served
		ent.Served = true
		return c
	}
	// loaded, in-view or out-of-view: Validate lets nothing else by
	c.Src, c.Fresh = ad.Src, ad.Fresh
	_, c.Flags = t.SourceAt(ent, c.Src)
	c.Before = *c.Flags
	switch e.Type {
	case beacon.EventLoaded:
		c.LoadedFirst = c.Before&loaded == 0
		*c.Flags |= loaded
		if e.Seq == 0 {
			c.Gap, c.GapPaired = t.Gap(ent, c.Src, e.At, false)
		}
	case beacon.EventInView:
		c.ViewedFirst = c.Before&viewed == 0
		*c.Flags |= viewed
		if e.Seq == 0 { // first, so that the loaded stamp it pairs with frees its slot
			c.Gap, c.GapPaired = t.Gap(ent, c.Src, e.At, true)
		}
		c.Dwell, c.Paired, c.Reversed = t.InView(ent, c.Src, e.Seq, e.At)
	case beacon.EventOutOfView:
		c.Dwell, c.Paired, c.Reversed, c.Orphan = t.OutOfView(ent, c.Src, e.Seq, e.At)
	}
	return c
}

// tables calls f with each table of the aggregator's impressions under
// the lock that guards it: the store's for an attached aggregator, its
// own otherwise.
func (a *Aggregator) tables(f func(*imptable.Table)) {
	if a.store != nil {
		a.store.Impressions(f)
		return
	}
	for i := range a.own {
		sh := &a.own[i]
		sh.mu.Lock()
		f(sh.t)
		sh.mu.Unlock()
	}
}

// Sweep drops the working state of every impression idle for at least
// the TTL as of now, returning how many were evicted; with a negative TTL
// it drops none. The campaign counters keep their totals, which bounds
// memory to TTL × arrival rate open impressions. Unpaired in-view cycles
// on an evicted impression never produce a dwell sample. An attached
// aggregator's store keeps a closed record of each, so its beacons stay
// duplicates.
func (a *Aggregator) Sweep(now time.Time) int {
	if a.opts.TTL < 0 {
		return 0
	}
	evicted := 0
	a.tables(func(t *imptable.Table) { evicted += t.Sweep(now.UnixNano(), a.opts.TTL) })
	a.evicted.Add(int64(evicted))
	a.open.Add(-int64(evicted))
	return evicted
}

// openLen counts the open impressions table by table under each table's
// lock: the audit OpenImpressions' counter must agree with when ingest is
// quiet.
func (a *Aggregator) openLen() int {
	n := 0
	a.tables(func(t *imptable.Table) { n += t.Len() })
	return n
}
