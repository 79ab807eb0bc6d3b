package detect

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"qtag/internal/beacon"
)

var lruT0 = time.Unix(1700000000, 0).UTC()

func servedOn(campaign, imp string) beacon.Event {
	return beacon.Event{ImpressionID: imp, CampaignID: campaign, Type: beacon.EventServed, At: lruT0}
}

// checkRecencyList requires every shard's recency list to hold exactly
// the shard's rows, doubly linked.
func checkRecencyList(t *testing.T, d *Detector) {
	t.Helper()
	for i := range d.camps {
		cs := &d.camps[i]
		n := 0
		var newer *row
		for r := cs.newest; r != nil; newer, r = r, r.older {
			if r.newer != newer {
				t.Fatalf("shard %d: row %v has a broken back link", i, r.key)
			}
			if cs.rows[r.key] != r {
				t.Fatalf("shard %d: listed row %v is not the shard's row under its key", i, r.key)
			}
			n++
		}
		if newer != cs.oldest || n != len(cs.rows) {
			t.Fatalf("shard %d: list holds %d rows ending at %p, map holds %d, oldest is %p", i, n, newer, len(cs.rows), cs.oldest)
		}
	}
}

// TestMaxRowsEvictsLeastRecentlyTouched: over the cap the inserting
// shard loses the row that has gone longest without an event or a
// duplicate — never the row just created.
func TestMaxRowsEvictsLeastRecentlyTouched(t *testing.T) {
	d := New(Options{Shards: 1, MaxRows: 3, TTL: -1})
	d.Observe(servedOn("a", "a1"))
	d.Observe(servedOn("b", "b1"))
	d.Observe(servedOn("c", "c1"))
	d.Observe(servedOn("a", "a2"))    // a is touched by an event,
	d.ObserveDup(servedOn("b", "b1")) // b by a duplicate: c is now the coldest
	has := func(campaign string) bool {
		return d.camps[0].rows[rowKey{campaign, SourceDSP}] != nil
	}
	d.Observe(servedOn("d", "d1"))
	if has("c") || !has("a") || !has("b") || !has("d") {
		t.Fatalf("inserting d should have evicted c alone: %v", d.Snapshot().Rows)
	}
	d.Observe(servedOn("e", "e1"))
	if has("a") || !has("b") || !has("d") || !has("e") {
		t.Fatalf("inserting e should have evicted a (touched before b): %v", d.Snapshot().Rows)
	}
	if d.Rows() != 3 {
		t.Fatalf("rows = %d, want the cap", d.Rows())
	}
	checkRecencyList(t, d)

	// A row alone in its shard is the one just created: it stays.
	lone := New(Options{Shards: 1, MaxRows: 1, TTL: -1})
	lone.Observe(servedOn("x", "x1"))
	lone.Observe(servedOn("y", "y1"))
	if lone.Rows() != 1 || lone.camps[0].rows[rowKey{"y", SourceDSP}] == nil {
		t.Fatalf("rows = %d, want only the newest", lone.Rows())
	}
	checkRecencyList(t, lone)
}

// TestMaxRowsEvictionVisitsBounded: at the cap, an insert examines one
// row to find its victim. The scan it replaces walked the whole shard —
// 256 rows per insert at the default 4 096 rows over 16 shards, for as
// long as the live campaigns outnumber the cap.
func TestMaxRowsEvictionVisitsBounded(t *testing.T) {
	d := New(Options{TTL: -1}) // default cap and shards
	const maxRows = 4096
	for i := 0; i < maxRows; i++ {
		d.Observe(servedOn("fill-"+strconv.Itoa(i), "i"))
	}
	const inserts = 10_000
	calls := 0 // each creates at most one row: a duplicate may land on a row already evicted
	for i := 0; i < inserts; i++ {
		d.Observe(servedOn("churn-"+strconv.Itoa(i), "i"))
		calls++
		if i%3 == 0 { // keep some survivors moving through the lists
			d.ObserveDup(servedOn("churn-"+strconv.Itoa(i/2), "i"))
			calls++
		}
	}
	var visits int64
	for i := range d.camps {
		visits += d.camps[i].evictVisits
	}
	if visits < inserts || visits > int64(calls) || visits != d.rowEvicted.Load() {
		t.Fatalf("%d inserts (%d calls) at the cap examined %d rows to evict %d", inserts, calls, visits, d.rowEvicted.Load())
	}
	if d.Rows() != maxRows {
		t.Fatalf("rows = %d, want the cap %d held exactly", d.Rows(), maxRows)
	}
	checkRecencyList(t, d)
}

// TestRunningScoreTerms: the peak bucket and the top and total placement
// counts the rate and geometry scores read are kept as events arrive;
// after random streams — rows evicted by the MaxRows cap and created
// again, placements past MaxSlots, buckets wrapping the ring — they equal
// a recomputation over the row's slots and slotViews.
func TestRunningScoreTerms(t *testing.T) {
	types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		d := New(Options{Shards: 2, MaxRows: 4, MaxSlots: 3, RateSlots: 8, TTL: -1})
		for i := 0; i < 2000; i++ {
			e := beacon.Event{
				ImpressionID: "imp-" + strconv.Itoa(rng.IntN(300)),
				CampaignID:   "camp-" + strconv.Itoa(rng.IntN(6)),
				Type:         types[rng.IntN(len(types))],
				At:           lruT0.Add(time.Duration(rng.IntN(40)-10) * time.Second),
				Meta:         beacon.Meta{Slot: "slot-" + strconv.Itoa(rng.IntN(5))},
			}
			if e.Type != beacon.EventServed {
				e.Source = []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}[rng.IntN(2)]
			}
			if rng.IntN(10) == 0 {
				d.ObserveDup(e)
			} else {
				d.Observe(e)
			}
		}
		if d.rowEvicted.Load() == 0 {
			t.Fatalf("seed %d: the MaxRows cap never evicted a row", seed)
		}
		for i := range d.camps {
			for k, r := range d.camps[i].rows {
				var peak, top, total int64
				for _, c := range r.slots {
					peak = max(peak, c)
				}
				for _, n := range r.slotViews {
					top, total = max(top, n), total+n
				}
				if r.peak != peak || r.slotTop != top || r.slotTotal != total {
					t.Fatalf("seed %d, row %v: running peak/top/total %d/%d/%d, recomputed %d/%d/%d",
						seed, k, r.peak, r.slotTop, r.slotTotal, peak, top, total)
				}
			}
		}
	}
}

// TestOpenImpressionsMatchesShards: the counter OpenImpressions returns
// equals the locked sum over the shards after ingest, after a TTL sweep
// and after MaxOpen pressure eviction.
func TestOpenImpressionsMatchesShards(t *testing.T) {
	clock := lruT0
	d := New(Options{TTL: time.Minute, MaxOpen: 40, Now: func() time.Time { return clock }})
	check := func(stage string, wantOpen func(int) bool) {
		t.Helper()
		if got, sum := d.OpenImpressions(), d.pass.Len(); got != sum || !wantOpen(got) {
			t.Fatalf("%s: OpenImpressions = %d, shards hold %d", stage, got, sum)
		}
	}
	for i := 0; i < 30; i++ {
		d.Observe(servedOn("c", "early-"+strconv.Itoa(i)))
	}
	check("after ingest", func(n int) bool { return n == 30 })
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		d.Observe(servedOn("c", "late-"+strconv.Itoa(i)))
	}
	if ev := d.Sweep(clock); ev != 30 {
		t.Fatalf("sweep evicted %d, want the 30 idle impressions", ev)
	}
	check("after sweep", func(n int) bool { return n == 5 })
	for i := 0; i < 400; i++ {
		d.Observe(servedOn("c", "flood-"+strconv.Itoa(i)))
	}
	check("after pressure eviction", func(n int) bool { return n > 0 && n < 405 })
	if d.Evicted() == 30 {
		t.Fatal("MaxOpen never evicted")
	}
}
