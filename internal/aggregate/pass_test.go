package aggregate

import (
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
)

// TestChangeReportsEachTransitionOnce walks one impression through the
// transitions a fold reads from a change: each is reported by the one
// event that makes it, with the flags as they were before that event.
func TestChangeReportsEachTransitionOnce(t *testing.T) {
	at := time.Unix(1600000000, 0).UTC()
	tab := imptable.New()
	step := func(src beacon.Source, typ beacon.EventType, format string, dt time.Duration) change {
		t.Helper()
		e := beacon.Event{ImpressionID: "i", CampaignID: "c", Source: src, Type: typ, At: at.Add(dt), Meta: beacon.Meta{Format: format}}
		return transition(tab, admit(tab, &e, at), &e, at)
	}

	c := step(beacon.SourceQTag, beacon.EventInView, "video", 0)
	if !c.Created || !c.Fresh || !c.ViewedFirst || c.LoadedFirst || c.Before != 0 || *c.Flags != viewed || c.Moved() || c.To != "video" {
		t.Fatalf("first in-view: %+v", c)
	}
	c = step(beacon.SourceQTag, beacon.EventLoaded, "", 0)
	if c.Created || c.Fresh || !c.LoadedFirst || c.ViewedFirst || c.Before != viewed || *c.Flags != viewed|loaded || c.To != "video" {
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
		c.ServedFirst || *other != viewed|loaded || c.Src != 1 || c.Before != 0 || *c.Flags != loaded {
		t.Fatalf("moving loaded: %+v", c)
	}
	if tab.Len() != 1 {
		t.Fatalf("%d open, want 1", tab.Len())
	}
}

// TestPassOpenMatchesShards: with the pass installed as its store's fold,
// the aggregator's open counter equals the locked sum over the store's
// tables after ingest, after a TTL sweep and after MaxOpen pressure
// eviction; evicted is swept plus capped; the pass folded every valid
// event once and ignored an invalid one.
func TestPassOpenMatchesShards(t *testing.T) {
	requireOpenMatchesTables(t, true)
}
