// What an open impression cannot hold inline spills (imptable): a third
// solution, a third open cycle, a seq an int16 does not hold, a key past
// the inline length, an event time no int64 of nanoseconds holds. This
// file puts those through the detector in every order and holds the row
// counters to figures worked out by hand from the event set.
package detect

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/simrand"
)

// spillEvents is five impressions of campaign "c", none of which fits an
// imptable.Entry.
func spillEvents() []beacon.Event {
	var out []beacon.Event
	at := lruT0
	ev := func(imp string, src beacon.Source, typ beacon.EventType, seq int, at time.Time) {
		out = append(out, beacon.Event{ImpressionID: imp, CampaignID: "c", Source: src, Type: typ, Seq: seq, At: at})
	}
	// "three": served, then four solutions with a cycle each, all open at
	// once (dwells 11, 12, 10 and 7 s), and one cycle left open.
	ev("three", "", beacon.EventServed, 0, at)
	for i, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial, "v3", "v4"} {
		ev("three", src, beacon.EventLoaded, 0, at)
		ev("three", src, beacon.EventInView, 0, at.Add(time.Duration(i)*time.Second))
	}
	for i, src := range []beacon.Source{"v4", beacon.SourceQTag, "v3", beacon.SourceCommercial} {
		ev("three", src, beacon.EventOutOfView, 0, at.Add(time.Duration(10+i)*time.Second))
	}
	ev("three", "v3", beacon.EventInView, 1, at)

	// "cycles": never served, never loaded; five out-of-views, four of
	// them paired — dwells 0 s (seq 0 and -70000), 2 s and, for seq 32768,
	// the 1 s of the viewability standard — and seq 1 an orphan.
	for _, seq := range []int{0, 1, 2, math.MaxInt16 + 1, -70000} {
		ev("cycles", beacon.SourceQTag, beacon.EventOutOfView, seq, at.Add(time.Duration(seq%7)*time.Second))
	}
	for _, seq := range []int{-70000, 2, math.MaxInt16 + 1, 0} {
		ev("cycles", beacon.SourceQTag, beacon.EventInView, seq, at)
	}

	// A 44-byte impression id: the key goes to key blocks.
	long := "imp-" + strings.Repeat("u", 40)
	ev(long, "", beacon.EventServed, 0, at)
	ev(long, beacon.SourceQTag, beacon.EventLoaded, 0, at)
	ev(long, beacon.SourceQTag, beacon.EventInView, 0, at)
	ev(long, beacon.SourceQTag, beacon.EventOutOfView, 0, at.Add(1500*time.Millisecond))

	// "saturates": a 550-year dwell (time.Duration's maximum) and its
	// mirror image, which clamps to zero. "year-one": an in-view no int64
	// of nanoseconds holds; its dwell saturates too.
	early, late := time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2250, 6, 1, 0, 0, 0, 1, time.UTC)
	ev("saturates", beacon.SourceCommercial, beacon.EventInView, 0, early)
	ev("saturates", beacon.SourceCommercial, beacon.EventOutOfView, 0, late)
	ev("saturates", beacon.SourceCommercial, beacon.EventInView, 1, late)
	ev("saturates", beacon.SourceCommercial, beacon.EventOutOfView, 1, early)
	ev("year-one", beacon.SourceQTag, beacon.EventInView, 0, time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC))
	ev("year-one", beacon.SourceQTag, beacon.EventOutOfView, 0, at)
	return out
}

// counters is the part of a row the spill paths feed.
type counters struct {
	events, impressions, dwellPairs, dwellZero, dwellExact, seqNoLoad, seqNoServe, seqOrphanOut int64
}

func TestSpilledStateIsExact(t *testing.T) {
	want := map[string]counters{
		"qtag":       {events: 17, impressions: 4, dwellPairs: 7, dwellZero: 2, dwellExact: 1, seqNoLoad: 2, seqNoServe: 2, seqOrphanOut: 1},
		"commercial": {events: 7, impressions: 2, dwellPairs: 3, dwellZero: 1, seqNoLoad: 1, seqNoServe: 1},
		"v3":         {events: 4, impressions: 1, dwellPairs: 1},
		"v4":         {events: 3, impressions: 1, dwellPairs: 1},
		SourceDSP:    {events: 2, impressions: 2},
	}
	events := spillEvents()
	var first Snapshot
	for round := 0; round < 40; round++ {
		order := append([]beacon.Event(nil), events...)
		switch round {
		case 0:
		case 1:
			for i, e := range events {
				order[len(events)-1-i] = e
			}
		default:
			rng := simrand.New(uint64(round)).Fork("shuffle")
			for i := len(order) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
		}
		d := New(Options{Shards: 1 + round%2*15, TTL: -1, Now: func() time.Time { return lruT0 }})
		store := beacon.NewStore()
		store.AddObserver(d.Observe)
		store.AddDupObserver(d.ObserveDup)
		for _, e := range order {
			if err := store.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]counters{}
		for i := range d.camps {
			for _, c := range d.camps[i].camps {
				for _, r := range c.rows {
					got[r.source] = counters{r.events, r.impressions, r.dwellPairs, r.dwellZero, r.dwellExact, r.seqNoLoad, r.seqNoServe, r.seqOrphanOut}
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: row counters\n got %+v\nwant %+v", round, got, want)
		}
		if d.OpenImpressions() != 5 {
			t.Fatalf("round %d: %d impressions open, want 5", round, d.OpenImpressions())
		}
		if snap := d.Snapshot(); round == 0 {
			first = snap
		} else if !reflect.DeepEqual(snap, first) {
			t.Fatalf("round %d: snapshot differs from the forward order's\n got %+v\nwant %+v", round, snap, first)
		}
	}
}

// TestOpeningAnImpressionDoesNotAllocate: on the honest shape — up to two
// solutions, up to two open cycles — what opening 1 000 impressions
// allocates is slab chunks and index growth, amortised well under a
// tenth of an allocation each: for the detector alone, and joined to an
// aggregator's pass as the collector wires it.
func TestOpeningAnImpressionDoesNotAllocate(t *testing.T) {
	for _, joined := range []bool{false, true} {
		d := New(Options{TTL: -1, Now: func() time.Time { return lruT0 }})
		observe := d.Observe
		if joined {
			a := aggregate.New(aggregate.Options{TTL: -1, Now: func() time.Time { return lruT0 }})
			d.Join(a.Pass())
			observe = a.Observe
		}
		e := beacon.Event{CampaignID: "camp-1", At: lruT0, Meta: beacon.Meta{Format: "display", AdSize: "300x250"}}
		ids := make([]string, 7000) // the first call below, AllocsPerRun's warm-up and its five runs
		for i := range ids {
			ids[i] = fmt.Sprintf("s1-closed-%d", i)
		}
		next := 0
		open := func() {
			for i := 0; i < 1000; i++ {
				e.ImpressionID = ids[next]
				next++
				e.Source, e.Type = "", beacon.EventServed
				observe(e)
				for _, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial} {
					e.Source, e.Type = src, beacon.EventLoaded
					observe(e)
					e.Type = beacon.EventInView
					observe(e)
				}
			}
		}
		open() // the score rows, the aggregator's rows and windows, and name tables exist from here on
		if perImpression := testing.AllocsPerRun(5, open) / 1000; perImpression >= 0.1 {
			t.Fatalf("joined=%v: %.3f allocations per opened impression, want < 0.1", joined, perImpression)
		}
		if d.OpenImpressions() != len(ids) || d.Updates() != 5*int64(len(ids)) {
			t.Fatalf("joined=%v: %d impressions open of %d, %d events folded", joined, d.OpenImpressions(), len(ids), d.Updates())
		}
	}
}
