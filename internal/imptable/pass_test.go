package imptable

import (
	"fmt"
	"testing"
	"time"

	"qtag/internal/beacon"
)

// TestPassOpenMatchesShards: the counter Open returns equals the locked
// sum over the shards after ingest, after a TTL sweep and after MaxOpen
// pressure eviction — and every fold of the pass saw every event once.
func TestPassOpenMatchesShards(t *testing.T) {
	clock := time.Unix(1600000000, 0).UTC()
	var folded [2]int
	p := NewPass(PassOptions{Shards: 16, TTL: time.Minute, MaxOpen: 40, Now: func() time.Time { return clock }},
		func(beacon.Event, Change) { folded[0]++ })
	p.Join(func(beacon.Event, Change) { folded[1]++ })
	check := func(stage string, wantOpen func(int) bool) {
		t.Helper()
		if got, sum := p.Open(), p.Len(); got != sum || !wantOpen(got) {
			t.Fatalf("%s: Open = %d, shards hold %d", stage, got, sum)
		}
	}
	served := func(imp string) beacon.Event {
		return beacon.Event{ImpressionID: imp, CampaignID: "c", Type: beacon.EventServed, At: clock}
	}
	for i := 0; i < 30; i++ {
		p.Observe(served(fmt.Sprintf("early-%d", i)))
	}
	check("after ingest", func(n int) bool { return n == 30 })
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		p.Observe(served(fmt.Sprintf("late-%d", i)))
	}
	if ev := p.Sweep(clock); ev != 30 {
		t.Fatalf("sweep evicted %d, want the 30 idle impressions", ev)
	}
	check("after sweep", func(n int) bool { return n == 5 })
	for i := 0; i < 400; i++ {
		p.Observe(served(fmt.Sprintf("flood-%d", i)))
	}
	check("after pressure eviction", func(n int) bool { return n > 0 && n < 405 })
	if p.PressureEvicted() == 0 || p.Evicted() != 30+p.PressureEvicted() {
		t.Fatalf("evicted %d, %d of them by the cap; want the 30 swept plus the cap's", p.Evicted(), p.PressureEvicted())
	}
	p.Observe(beacon.Event{ImpressionID: "x", Type: beacon.EventServed}) // no campaign: ignored
	if folded != [2]int{435, 435} || p.Updates() != 435 {
		t.Fatalf("folds saw %v events and Updates is %d, want 435 each", folded, p.Updates())
	}
}

// TestChangeReportsEachTransitionOnce walks one impression through the
// transitions a fold reads from a Change: each is reported by the one
// event that makes it, with the flags as they were before that event.
func TestChangeReportsEachTransitionOnce(t *testing.T) {
	at := time.Unix(1600000000, 0).UTC()
	var got Change
	p := NewPass(PassOptions{Shards: 1, TTL: -1, Now: func() time.Time { return at }}, func(_ beacon.Event, c Change) { got = c })
	step := func(src beacon.Source, typ beacon.EventType, format string, dt time.Duration) Change {
		t.Helper()
		p.Observe(beacon.Event{ImpressionID: "i", CampaignID: "c", Source: src, Type: typ, At: at.Add(dt), Meta: beacon.Meta{Format: format}})
		return got
	}

	c := step(beacon.SourceQTag, beacon.EventInView, "video", 0)
	if !c.Created || !c.Fresh || !c.ViewedFirst || c.LoadedFirst || c.Before != 0 || *c.Flags != Viewed || c.Moved() || c.To != "video" {
		t.Fatalf("first in-view: %+v", c)
	}
	c = step(beacon.SourceQTag, beacon.EventLoaded, "", 0)
	if c.Created || c.Fresh || !c.LoadedFirst || c.ViewedFirst || c.Before != Viewed || *c.Flags != Viewed|Loaded || c.To != "video" {
		t.Fatalf("late loaded: %+v", c)
	}
	c = step("", beacon.EventServed, "", 0)
	if !c.ServedFirst || c.Flags != nil || !c.Entry.Served {
		t.Fatalf("served: %+v", c)
	}
	c = step(beacon.SourceQTag, beacon.EventOutOfView, "", 1500*time.Millisecond)
	if !c.Paired || c.Dwell != 1500*time.Millisecond || c.Orphan || c.LoadedFirst || c.ViewedFirst {
		t.Fatalf("out-of-view: %+v", c)
	}
	c = step(beacon.SourceCommercial, beacon.EventOutOfView, "", 0)
	if !c.Orphan || c.Paired || !c.Fresh || c.Src != 1 {
		t.Fatalf("orphan out-of-view: %+v", c)
	}
	// A smaller format moves the impression; the event's own solution's
	// flags from before it are Before.
	c = step(beacon.SourceCommercial, beacon.EventLoaded, "banner", 0)
	if _, other := c.Table.SourceAt(c.Entry, 0); !c.Moved() || c.From != "video" || c.To != "banner" ||
		c.ServedFirst || *other != Viewed|Loaded || c.Src != 1 || c.Before != 0 || *c.Flags != Loaded {
		t.Fatalf("moving loaded: %+v", c)
	}
	if p.Open() != 1 || p.Updates() != 6 {
		t.Fatalf("%d open and %d folded, want 1 and 6", p.Open(), p.Updates())
	}
}
