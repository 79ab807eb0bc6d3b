package detect_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	. "qtag/internal/detect"
)

// FuzzDetectObserve fuzzes the detector with arbitrary event
// sequences — one JSON event per input line, each submitted twice so
// the duplicate hook gets coverage too. Invariants for ANY input:
//
//   - neither Observe, ObserveDup, nor Snapshot panics;
//   - every contribution and composite score stays in [0,1];
//   - memory stays bounded: open impression states respect the
//     aggregator's MaxOpen (per-shard approximate, so the bound allows
//     one straggler per shard).
//
// Seed corpus lives under testdata/fuzz/FuzzDetectObserve.
func FuzzDetectObserve(f *testing.F) {
	f.Add(`{"impression_id":"a","campaign_id":"c","type":"served"}`)
	f.Add(`{"impression_id":"a","campaign_id":"c","source":"qtag","type":"in-view","at":"2023-11-14T22:13:20Z","meta":{"slot":"s1","ad_size":"1x1"}}` + "\n" +
		`{"impression_id":"a","campaign_id":"c","source":"qtag","type":"out-of-view","at":"2023-11-14T22:13:21Z"}`)
	f.Add(`{"impression_id":"a","campaign_id":"c","source":"qtag","type":"out-of-view","seq":-3,"at":"0001-01-01T00:00:00Z"}`)
	f.Add(`not json` + "\n" + `{"impression_id":"","campaign_id":"","type":"served"}`)
	f.Add(strings.Repeat(`{"impression_id":"x","campaign_id":"flood","source":"qtag","type":"loaded"}`+"\n", 40))
	f.Fuzz(func(t *testing.T, input string) {
		const maxOpen, shards = 64, 16
		agg := aggregate.New(aggregate.Options{
			Shards:  shards,
			TTL:     -1,
			MaxOpen: maxOpen,
			Now:     func() time.Time { return time.Unix(1700000000, 0) },
		})
		det := Over(agg, Options{})
		store := beacon.NewStore()
		store.AddObserver(det.Observe)
		store.AddDupObserver(det.ObserveDup)

		for _, line := range strings.Split(input, "\n") {
			var e beacon.Event
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			store.Submit(e) // a panic here fails the fuzz run
			store.Submit(e) // duplicate path
		}

		snap := det.Snapshot()
		for _, r := range snap.Rows {
			if r.Score < 0 || r.Score > 1 {
				t.Fatalf("composite score %v out of [0,1]: %+v", r.Score, r)
			}
			for k, v := range r.Contribs {
				if v < 0 || v > 1 {
					t.Fatalf("contribution %s=%v out of [0,1]: %+v", k, v, r)
				}
			}
		}
		if open := agg.OpenImpressions(); open > maxOpen+shards {
			t.Fatalf("open impressions %d exceeds cap %d", open, maxOpen)
		}
	})
}
