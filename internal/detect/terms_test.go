package detect

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
)

var baseT0 = time.Unix(1700000000, 0).UTC()

// TestRunningScoreTerms: the peak bucket and the top and total placement
// counts the rate and geometry scores read are kept as events arrive;
// after random streams — event times over 200 s, which wrap the ring of
// aggregate.RateSlots one-second buckets, and in-views on 100
// placements, past the aggregate.MaxSlots a row names — they equal a
// recomputation over the row's slots and over the stream's in-views,
// and no violation count is below zero.
func TestRunningScoreTerms(t *testing.T) {
	types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
	type key struct{ campaign, source string }
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		d := New(Options{Shards: 2})
		named := map[key]map[string]int64{} // in-views by placement, the first MaxSlots placements of a row
		other := map[key]int64{}
		for i := 0; i < 6000; i++ {
			e := beacon.Event{
				ImpressionID: "imp-" + strconv.Itoa(rng.IntN(300)),
				CampaignID:   "camp-" + strconv.Itoa(rng.IntN(3)),
				Type:         types[rng.IntN(len(types))],
				At:           baseT0.Add(time.Duration(rng.IntN(200)-10) * time.Second),
				Meta:         beacon.Meta{Slot: "slot-" + strconv.Itoa(rng.IntN(100))},
			}
			if e.Type != beacon.EventServed {
				e.Source = []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}[rng.IntN(2)]
			}
			if rng.IntN(10) == 0 {
				d.ObserveDup(e)
				continue
			}
			d.Observe(e)
			if e.Type == beacon.EventInView {
				k := key{e.CampaignID, string(e.Source)}
				if named[k] == nil {
					named[k] = map[string]int64{}
				}
				if _, ok := named[k][e.Meta.Slot]; ok || len(named[k]) < aggregate.MaxSlots {
					named[k][e.Meta.Slot]++
				} else {
					other[k]++
				}
			}
		}
		wrapped, overflowed := false, false
		d.agg.ScoreRows(func(id string, rows []*aggregate.Score) {
			for _, s := range rows {
				var peak, top, total int64
				for _, n := range s.Slots {
					peak = max(peak, n)
				}
				k := key{id, s.Source}
				for _, n := range named[k] {
					top, total = max(top, n), total+n
				}
				if s.Peak != peak || s.SlotTop != top || s.SlotTotal != total || s.SlotOther != other[k] {
					t.Errorf("seed %d, row %s/%s: running peak/top/total/other %d/%d/%d/%d, recomputed %d/%d/%d/%d",
						seed, id, s.Source, s.Peak, s.SlotTop, s.SlotTotal, s.SlotOther, peak, top, total, other[k])
				}
				if v := violations(s); min(v.NoServed, v.NoLoaded, v.OrphanOutOfView, v.ImpossibleDwell, v.OutOfOrder) < 0 {
					t.Errorf("seed %d, row %s/%s: a violation count is below zero: %+v", seed, id, s.Source, v)
				}
				wrapped = wrapped || s.MaxB-s.MinB >= aggregate.RateSlots
				overflowed = overflowed || s.SlotOther > 0
			}
		})
		if !wrapped || !overflowed {
			t.Fatalf("seed %d: the stream wrapped a rate ring: %v; overflowed a placement map: %v; want both", seed, wrapped, overflowed)
		}
	}
}
