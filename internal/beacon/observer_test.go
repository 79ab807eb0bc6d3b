package beacon_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/obs"
	"qtag/internal/report"
)

// TestStoreObserverFirstSeenOnly: the observer fires exactly once per
// distinct idempotency key, never for duplicates or invalid events —
// the contract the streaming aggregator's idempotency rests on.
func TestStoreObserverFirstSeenOnly(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	seen := map[string]int{}
	store.AddObserver(func(e Event) {
		mu.Lock()
		seen[e.Key()]++
		mu.Unlock()
	})

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 5; i++ {
		store.Submit(e) // duplicates
	}
	store.Submit(Event{Type: EventServed}) // invalid: no ids

	if len(seen) != 1 || seen[e.Key()] != 1 {
		t.Fatalf("observer calls = %v, want exactly one for %q", seen, e.Key())
	}
}

// TestStoreObserverConcurrentExactlyOnce: under concurrent duplicate
// submission across shards, every distinct key is observed exactly once
// (the shard lock serializes observer calls per impression).
func TestStoreObserverConcurrentExactlyOnce(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	seen := map[string]int{}
	store.AddObserver(func(e Event) {
		mu.Lock()
		seen[e.Key()]++
		mu.Unlock()
	})

	const keys, workers = 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				store.Submit(Event{
					ImpressionID: fmt.Sprintf("imp-%d", i),
					CampaignID:   "c",
					Type:         EventServed,
				})
			}
		}()
	}
	wg.Wait()
	if len(seen) != keys {
		t.Fatalf("distinct keys observed = %d, want %d", len(seen), keys)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %q observed %d times", k, n)
		}
	}
	if store.Len() != keys {
		t.Fatalf("store len = %d", store.Len())
	}
}

// TestStoreAddObserverFanOut: multiple observers each see every
// first-seen event exactly once, in registration order, and a
// duplicate submission reaches none of them.
func TestStoreAddObserverFanOut(t *testing.T) {
	store := NewStore()
	var order []string
	store.AddObserver(func(e Event) { order = append(order, "first:"+e.Key()) })
	store.AddObserver(func(e Event) { order = append(order, "second:"+e.Key()) })

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	store.Submit(e) // duplicate: neither observer fires

	want := []string{"first:" + e.Key(), "second:" + e.Key()}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
}

// TestStoreDupObserver: the duplicate hook fires exactly for absorbed
// duplicates — never for first-seen or invalid events — so first-seen
// and duplicate hooks partition every valid submission.
func TestStoreDupObserver(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	first, dups := 0, 0
	store.AddObserver(func(Event) { mu.Lock(); first++; mu.Unlock() })
	store.AddDupObserver(func(Event) { mu.Lock(); dups++; mu.Unlock() })

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 4; i++ {
		store.Submit(e)
	}
	store.Submit(Event{Type: EventServed}) // invalid: reaches neither hook

	if first != 1 || dups != 4 {
		t.Fatalf("first=%d dups=%d, want 1 and 4", first, dups)
	}
}

// TestStoreDupObserverConcurrent: under concurrent duplicate pressure,
// first-seen + duplicate hook counts always sum to the number of valid
// submissions — nothing double-fires, nothing is lost.
func TestStoreDupObserverConcurrent(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	first, dups := 0, 0
	store.AddObserver(func(Event) { mu.Lock(); first++; mu.Unlock() })
	store.AddDupObserver(func(Event) { mu.Lock(); dups++; mu.Unlock() })

	const keys, workers = 100, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				store.Submit(Event{
					ImpressionID: fmt.Sprintf("imp-%d", i),
					CampaignID:   "c",
					Type:         EventServed,
				})
			}
		}()
	}
	wg.Wait()
	if first != keys {
		t.Fatalf("first-seen observations = %d, want %d", first, keys)
	}
	if first+dups != keys*workers {
		t.Fatalf("first+dups = %d, want %d", first+dups, keys*workers)
	}
}

// TestStoreAggregation: the store counts nothing itself; the aggregator
// it feeds counts impressions — served, and per solution measured and
// viewed — whatever the beacons repeat.
func TestStoreAggregation(t *testing.T) {
	s := NewStore()
	agg := aggregate.Attach(s, aggregate.Options{TTL: -1})
	ev := func(imp, camp string, src Source, typ EventType, seq int) Event {
		return Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, Seq: seq}
	}
	// Campaign c1: 3 served, qtag measures 2, 1 in-view (over two
	// cycles); commercial measures 1, 1 in-view.
	for _, e := range []Event{
		ev("a", "c1", "", EventServed, 0), ev("b", "c1", "", EventServed, 0), ev("c", "c1", "", EventServed, 0),
		ev("a", "c1", SourceQTag, EventLoaded, 0), ev("b", "c1", SourceQTag, EventLoaded, 0),
		ev("a", "c1", SourceQTag, EventInView, 0), ev("a", "c1", SourceQTag, EventOutOfView, 0),
		ev("a", "c1", SourceQTag, EventInView, 1),
		ev("a", "c1", SourceCommercial, EventLoaded, 0), ev("a", "c1", SourceCommercial, EventInView, 0),
		// Campaign c2: 1 served, nothing measured.
		ev("z", "c2", "", EventServed, 0),
	} {
		if err := s.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 11 {
		t.Errorf("Len = %d, want 11 events", s.Len())
	}
	c1, all := agg.Totals("c1"), agg.Totals()
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"served(c1)", c1.Served, 3},
		{"served(all)", all.Served, 4},
		{"measured(c1, qtag)", c1.Measured[SourceQTag], 2},
		{"measured(c1, commercial)", c1.Measured[SourceCommercial], 1},
		{"viewed(c1, qtag)", c1.Viewed[SourceQTag], 1},
		{"viewed(c2, qtag)", agg.Totals("c2").Viewed[SourceQTag], 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if ids := agg.CampaignIDs(); len(ids) != 2 || ids[0] != "c1" || ids[1] != "c2" {
		t.Errorf("CampaignIDs = %v", ids)
	}
}

// TestStoreCampaignsGaugeMatchesCampaignIDs: qtag_store_campaigns is
// the aggregator's count of the campaigns it has opened, not a walk
// over them; after concurrent ingest on both store paths it must still
// say what the walk says.
func TestStoreCampaignsGaugeMatchesCampaignIDs(t *testing.T) {
	store := NewStoreWithShards(8)
	agg := aggregate.Attach(store, aggregate.Options{Shards: 8, TTL: -1})
	reg := obs.NewRegistry()
	agg.RegisterMetrics(reg)
	const workers, perWorker, campaigns = 8, 600, 137
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []Event
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				e := Event{
					ImpressionID: fmt.Sprintf("imp-%d", n%1000), // collisions across workers
					CampaignID:   fmt.Sprintf("camp-%d", n%1000%campaigns),
					Type:         EventServed,
					Meta:         Meta{OS: []string{"android", "ios"}[n%2]},
				}
				if w%2 == 0 {
					if err := store.Submit(e); err != nil {
						t.Error(err)
					}
					continue
				}
				if batch = append(batch, e); len(batch) == 64 || i == perWorker-1 {
					if err := store.SubmitBatch(batch); err != nil {
						t.Error(err)
					}
					batch = batch[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	want := len(agg.CampaignIDs())
	if want != campaigns {
		t.Fatalf("CampaignIDs() has %d campaigns, the workload %d", want, campaigns)
	}
	if got := reg.Values()["qtag_store_campaigns"]; got != float64(want) {
		t.Fatalf("qtag_store_campaigns = %g, len(CampaignIDs()) = %d", got, want)
	}
}

// TestServerStatsEndpoints: GET /report, the read route internal/report
// mounts on a collection server, answers with the counts of the
// aggregator the store feeds — in its rows and in its Table 2 slices
// alike.
func TestServerStatsEndpoints(t *testing.T) {
	store := NewStore()
	server := NewServer(store)
	server.Mount("GET /report", report.Handler(aggregate.Attach(store, aggregate.Options{TTL: -1}), nil))
	srv := httptest.NewServer(server)
	defer srv.Close()

	sink := &HTTPSink{BaseURL: srv.URL}
	ios := Meta{OS: "iOS", SiteType: "app"}
	for _, imp := range []string{"a", "b", "c", "d"} {
		mustSubmit(t, sink, Event{ImpressionID: imp, CampaignID: "camp-1", Type: EventServed, Meta: ios})
	}
	mustSubmit(t, sink, Event{ImpressionID: "a", CampaignID: "camp-1", Source: SourceQTag, Type: EventLoaded, Meta: ios})
	mustSubmit(t, sink, Event{ImpressionID: "b", CampaignID: "camp-1", Source: SourceQTag, Type: EventLoaded, Meta: ios})
	mustSubmit(t, sink, Event{ImpressionID: "c", CampaignID: "camp-1", Source: SourceQTag, Type: EventLoaded, Meta: ios})
	mustSubmit(t, sink, Event{ImpressionID: "a", CampaignID: "camp-1", Source: SourceQTag, Type: EventInView, Meta: ios})

	resp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep report.ViewabilityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Campaigns.Rows) != 1 || rep.Campaigns.Rows[0].Served != 4 {
		t.Fatalf("rows = %+v, want one row serving 4", rep.Campaigns.Rows)
	}
	q := rep.Campaigns.Rows[0].Sources["qtag"]
	if q.Measured != 3 || q.Viewed != 1 {
		t.Errorf("qtag counts = %+v", q)
	}
	if q.MeasuredRate != 0.75 {
		t.Errorf("measured rate = %v", q.MeasuredRate)
	}
	if q.ViewabilityRate < 0.33 || q.ViewabilityRate > 0.34 {
		t.Errorf("viewability rate = %v", q.ViewabilityRate)
	}
	want := []aggregate.Slice{{SiteType: "app", OS: "iOS", Counts: aggregate.Counts{Served: 4,
		Measured: map[Source]int64{SourceQTag: 3}, Viewed: map[Source]int64{SourceQTag: 1}}}}
	if !reflect.DeepEqual(rep.Slices, want) {
		t.Errorf("slices = %+v, want %+v", rep.Slices, want)
	}
	if server.Accepted() != 8 {
		t.Errorf("Accepted = %d", server.Accepted())
	}
}

func mustSubmit(t *testing.T, s Sink, e Event) {
	t.Helper()
	if err := s.Submit(e); err != nil {
		t.Fatal(err)
	}
}
