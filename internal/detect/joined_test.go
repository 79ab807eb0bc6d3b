// A detector joined to an aggregator's pass (Join) keeps its impressions
// in the aggregator's records. This file holds the joined pair to an
// aggregator and a detector attached separately, each with its own pass:
// whatever the event set, the order, the evictions, they must read the
// same.
package detect_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	. "qtag/internal/detect"
	"qtag/internal/simrand"
)

// joinedStream draws n impressions in every shape the shared pass has to
// get right: one to four solutions, third-party names among them;
// solution beacons without a served event or ahead of it; loaded after
// in-view; up to three cycles per solution, out-of-views ahead of their
// in-views and cycles left open; a format drawn per event, so a smaller
// one arrives late with loaded and in-view in every order; ids past
// imptable.InlineKey. Impressions overlap in a sliding window, some
// beacons arrive far later than the rest of theirs (after a sweep has
// dropped the impression) and some are sent twice. Campaigns are many, so
// a row holds few impressions and a counter one fold makes from another's
// bits shows in the snapshot.
func joinedStream(seed uint64, n int) []beacon.Event {
	rng := simrand.New(seed).Fork("joined-stream")
	solutions := []beacon.Source{beacon.SourceQTag, "x-verifier", beacon.SourceCommercial, "moat-3p"}
	formats := []string{"video", "interstitial", "banner", ""}
	sizes := []string{"300x250", "1x1", ""}
	base := time.Unix(1700000000, 0).UTC()
	var out []beacon.Event
	for imp := 0; imp < n; imp++ {
		id := fmt.Sprintf("imp-%d", imp)
		if imp%9 == 0 {
			id += "-" + strings.Repeat("k", 40+imp%70)
		}
		at := base.Add(time.Duration(imp) * 300 * time.Millisecond)
		var evs []beacon.Event
		ev := func(src beacon.Source, typ beacon.EventType, seq int, dt time.Duration) {
			evs = append(evs, beacon.Event{
				ImpressionID: id, CampaignID: fmt.Sprintf("camp-%d", imp%251), Source: src, Type: typ, Seq: seq, At: at.Add(dt),
				Meta: beacon.Meta{Format: formats[rng.Intn(len(formats))], AdSize: sizes[rng.Intn(len(sizes))], Slot: fmt.Sprintf("slot-%d", rng.Intn(5))},
			})
		}
		if rng.Bool(0.85) {
			ev("", beacon.EventServed, 0, 0)
		}
		for _, src := range solutions[:1+rng.Intn(len(solutions))] {
			if rng.Bool(0.8) {
				ev(src, beacon.EventLoaded, 0, 200*time.Millisecond)
			}
			for seq := 0; seq < rng.Intn(4); seq++ {
				in := time.Duration(1+seq*3) * time.Second
				if rng.Bool(0.9) {
					ev(src, beacon.EventInView, seq, in)
				}
				if rng.Bool(0.7) {
					ev(src, beacon.EventOutOfView, seq, in+time.Duration(rng.Intn(2500))*time.Millisecond)
				}
			}
		}
		for i := len(evs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			evs[i], evs[j] = evs[j], evs[i]
		}
		out = append(out, evs...)
	}
	// Overlap the impressions: each event swaps with one up to 40 ahead.
	for i := range out {
		j := min(i+rng.Intn(40), len(out)-1)
		out[i], out[j] = out[j], out[i]
	}
	// Stragglers and re-sends.
	var late []beacon.Event
	kept := out[:0]
	for _, e := range out {
		if rng.Bool(0.03) {
			late = append(late, e)
			continue
		}
		kept = append(kept, e)
		if rng.Bool(0.1) {
			late = append(late, e)
		}
	}
	return append(kept, late...)
}

// observers is one ingest side: a store with an aggregator and a detector
// on it, joined or separate.
type observers struct {
	joined bool
	store  *beacon.Store
	agg    *aggregate.Aggregator
	det    *Detector
}

func newObservers(joined bool, shards int, ttl time.Duration, maxOpen int, now func() time.Time) observers {
	o := observers{
		joined: joined,
		store:  beacon.NewStore(),
		agg:    aggregate.New(aggregate.Options{Shards: shards, TTL: ttl, MaxOpen: maxOpen, Now: now}),
		det:    New(Options{Shards: shards, TTL: ttl, MaxOpen: maxOpen, Now: now}),
	}
	o.store.AddObserver(o.agg.Observe)
	if joined {
		o.det.Join(o.agg.Pass())
	} else {
		o.store.AddObserver(o.det.Observe)
	}
	o.store.AddDupObserver(o.det.ObserveDup)
	return o
}

// sweep sweeps as the collector does: joined, the aggregator's sweep is
// the detector's too.
func (o observers) sweep(now time.Time) [2]int {
	n := o.agg.Sweep(now)
	if o.joined {
		return [2]int{n, n}
	}
	return [2]int{n, o.det.Sweep(now)}
}

// state is everything a reader can get out of the two observers.
func (o observers) state() map[string]any {
	return map[string]any{
		"aggregate snapshot": o.agg.Snapshot(),
		"aggregate windows":  o.agg.Windows(),
		"detect snapshot":    o.det.Snapshot(),
		"counters": []int64{
			o.agg.Updates(), o.agg.Evicted(), o.agg.PressureEvicted(), int64(o.agg.OpenImpressions()), o.agg.DwellPairs(),
			o.det.Updates(), o.det.Evicted(), int64(o.det.OpenImpressions()), o.det.DupEvents(), int64(o.det.Rows()),
		},
	}
}

// TestJoinedEqualsSeparate: an aggregator and a detector sharing one pass
// read exactly as the two attached separately with the same options — at
// one shard and sixteen, with and without a TTL swept every few events on
// a fake arrival clock, with and without a MaxOpen cap.
func TestJoinedEqualsSeparate(t *testing.T) {
	for _, seed := range []uint64{1, 0xabc} {
		stream := joinedStream(seed, 700)
		for _, shards := range []int{1, 16} {
			for _, ttl := range []time.Duration{-1, 20 * time.Second} {
				for _, maxOpen := range []int{0, 48} {
					label := fmt.Sprintf("seed=%d shards=%d ttl=%v max-open=%d", seed, shards, ttl, maxOpen)
					clock := time.Unix(1800000000, 0).UTC()
					now := func() time.Time { return clock }
					joined, separate := newObservers(true, shards, ttl, maxOpen, now), newObservers(false, shards, ttl, maxOpen, now)
					for i, e := range stream {
						clock = clock.Add(100 * time.Millisecond)
						if err := joined.store.Submit(e); err != nil {
							t.Fatal(err)
						}
						if err := separate.store.Submit(e); err != nil {
							t.Fatal(err)
						}
						if i%37 == 0 {
							if j, s := joined.sweep(clock), separate.sweep(clock); j != s || s[0] != s[1] {
								t.Fatalf("%s: event %d: the joined sweep dropped %v, the separate ones %v", label, i, j, s)
							}
						}
					}
					got, want := joined.state(), separate.state()
					for k := range want {
						if !reflect.DeepEqual(got[k], want[k]) {
							t.Fatalf("%s: %s differs\njoined:   %+v\nseparate: %+v", label, k, got[k], want[k])
						}
					}
					if ttl > 0 && joined.agg.Evicted() == joined.agg.PressureEvicted() {
						t.Fatalf("%s: no sweep ever dropped an impression", label)
					}
					if maxOpen > 0 && joined.agg.PressureEvicted() == 0 {
						t.Fatalf("%s: the cap never evicted", label)
					}
					if joined.det.DupEvents() == 0 {
						t.Fatalf("%s: no re-send reached the duplicate hook", label)
					}
				}
			}
		}
	}
}
