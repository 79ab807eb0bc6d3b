// Equivalence property tests: the streaming accumulators must equal a
// batch recompute over the raw event set — for any arrival order, any
// interleaving across goroutines, any amount of duplicate delivery, and
// across a crash/WAL-replay boundary. This is the invariant that makes
// GET /report trustworthy: it serves streaming state, but the answer is
// provably what a scan of the store would say.
package aggregate

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// aggStream draws n events with deliberate collisions, like the beacon
// package's randomStream, plus the fields the aggregator cares about:
// formats (including per-impression disagreements that force format
// migration), site types and OSes for the Table 2 slices, and
// in-view/out-of-view timestamps that pair into dwell cycles. Non-key
// fields are derived from (impression, type, seq), so duplicate stream
// entries are byte-identical — the precondition for order independence.
func aggStream(seed uint64, n int) []beacon.Event {
	rng := simrand.New(seed).Fork("agg-equiv-stream")
	types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
	sources := []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}
	formats := []string{"banner", "interstitial", "video", ""}
	out := make([]beacon.Event, 0, n)
	for i := 0; i < n; i++ {
		ti := rng.Intn(len(types))
		typ := types[ti]
		imp := rng.Intn(n/4 + 1)
		at := time.Unix(1500000000+int64(imp), 0).UTC()
		if typ == beacon.EventOutOfView {
			// Out-of-view trails its in-view by a per-impression dwell, so
			// pairs produce deterministic histogram sums.
			at = at.Add(time.Duration(imp%5) * 700 * time.Millisecond)
		}
		format := formats[imp%len(formats)]
		if imp%7 == 0 {
			// Some impressions disagree on format across event types —
			// the wire does not forbid it — exercising row migration.
			format = formats[(imp+ti)%len(formats)]
		}
		e := beacon.Event{
			ImpressionID: fmt.Sprintf("imp-%d", imp),
			CampaignID:   fmt.Sprintf("camp-%d", imp%3),
			Type:         typ,
			At:           at,
			Seq:          imp % 2,
			Meta:         beacon.Meta{Format: format, OS: []string{"android", "ios", ""}[imp/3%3], SiteType: []string{"app", "browser"}[imp/2%2]},
		}
		if typ != beacon.EventServed {
			e.Source = sources[imp%len(sources)]
		}
		out = append(out, e)
	}
	return out
}

func testOpts(shards int) Options {
	return Options{Shards: shards, TTL: -1, Now: func() time.Time { return t0 }}
}

// assertEquivalent compares the streaming snapshot against the batch
// oracle (Recompute over the store's first-seen events, as kept
// recorded them) and checks the classification partition invariant on
// both.
func assertEquivalent(t *testing.T, label string, a *Aggregator, kept *beacon.Recorder, opts Options) {
	t.Helper()
	got := a.Snapshot()
	batch := Recompute(kept.Events(), opts)
	want := batch.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: streaming != batch recompute\n got: %+v\nwant: %+v", label, got, want)
	}
	assertPartition(t, label, got)
	if got, want := a.Slices(), batch.Slices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: streaming slices != batch recompute\n got: %+v\nwant: %+v", label, got, want)
	}
	var each [][]Slice
	for _, id := range a.CampaignIDs() {
		if got, want := a.Slices(id), batch.Slices(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: campaign %s: streaming slices != batch recompute\n got: %+v\nwant: %+v", label, id, got, want)
		}
		each = append(each, a.Slices(id))
	}
	// The shards' running sums are the campaigns' slices summed.
	if got, want := a.Slices(), MergeSlices(each...); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: shard sums != campaigns' slices summed\n got: %+v\nwant: %+v", label, got, want)
	}
	assertSlicesSumToRows(t, label, a, got)
}

// assertSlicesSumToRows: every campaign's Table 2 slices add up to its
// report rows — served, and per solution measured and viewed.
func assertSlicesSumToRows(t *testing.T, label string, a *Aggregator, s Snapshot) {
	t.Helper()
	rows := map[string]*Counts{}
	for _, r := range s.Rows {
		c := rows[r.CampaignID]
		if c == nil {
			c = &Counts{}
			rows[r.CampaignID] = c
		}
		add := Counts{Served: r.Served, Measured: map[beacon.Source]int64{}, Viewed: map[beacon.Source]int64{}}
		for src, sc := range r.Sources {
			add.Measured[beacon.Source(src)] = sc.Measured
			add.Viewed[beacon.Source(src)] = sc.Viewed
		}
		c.Add(add)
	}
	var all Counts
	for id, want := range rows {
		got := a.Totals(id)
		if !reflect.DeepEqual(got, *want) {
			t.Fatalf("%s: campaign %s: slices sum to %+v, rows to %+v", label, id, got, *want)
		}
		all.Add(got)
	}
	if got := a.Totals(); !reflect.DeepEqual(got, all) {
		t.Fatalf("%s: all slices sum to %+v, every campaign's to %+v", label, got, all)
	}
}

// assertPartition: viewed + not-viewed + not-measured = impressions for
// every row and source, all counts non-negative, rates in [0,1].
func assertPartition(t *testing.T, label string, s Snapshot) {
	t.Helper()
	for _, r := range s.Rows {
		if r.Impressions < 0 || r.Served < 0 || r.Served > r.Impressions {
			t.Fatalf("%s: row %s/%s counts out of range: %+v", label, r.CampaignID, r.Format, r)
		}
		for src, c := range r.Sources {
			if c.Viewed+c.NotViewed+c.NotMeasured != r.Impressions {
				t.Fatalf("%s: %s/%s source %s partition broken: %+v of %d impressions",
					label, r.CampaignID, r.Format, src, c, r.Impressions)
			}
			// Measured (has a loaded check-in) is NOT viewed+notViewed:
			// a rogue in-view with no loaded still classifies as viewed,
			// so only the not-viewed leg implies measured.
			if c.NotViewed > c.Measured {
				t.Fatalf("%s: %s/%s source %s not-viewed exceeds measured: %+v", label, r.CampaignID, r.Format, src, c)
			}
			if c.Viewed < 0 || c.NotViewed < 0 || c.NotMeasured < 0 {
				t.Fatalf("%s: %s/%s source %s negative count: %+v", label, r.CampaignID, r.Format, src, c)
			}
			// Rates can exceed 1 on inconsistent wire input (loaded with
			// no served, in-view with no loaded) — truthful, not clamped —
			// but must never be negative.
			if c.MeasuredRate < 0 || c.ViewabilityRate < 0 {
				t.Fatalf("%s: %s/%s source %s negative rate: %+v", label, r.CampaignID, r.Format, src, c)
			}
		}
	}
}

// TestStreamingBatchEquivalence: sequential ingest through a store at
// several shard counts matches the batch oracle exactly.
func TestStreamingBatchEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xbeef} {
		stream := aggStream(seed, 1200)
		for _, shards := range []int{1, 4, 16} {
			opts := testOpts(shards)
			a := New(opts)
			store := beacon.NewStore()
			kept := beacon.Record(store)
			store.AddObserver(a.Observe)
			for _, e := range stream {
				if err := store.Submit(e); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			assertEquivalent(t, fmt.Sprintf("seed=%d shards=%d", seed, shards), a, kept, opts)
		}
	}
}

// TestStreamingEquivalenceConcurrent: the same stream interleaved
// across goroutines — plus a full duplicate pass — converges to the
// same snapshot. Run under -race this also proves the observer wiring
// is data-race free.
func TestStreamingEquivalenceConcurrent(t *testing.T) {
	stream := aggStream(77, 1600)
	for _, shards := range []int{1, 8} {
		opts := testOpts(shards)
		a := New(opts)
		store := beacon.NewStore()
		kept := beacon.Record(store)
		store.AddObserver(a.Observe)
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(stream); i += workers {
					store.Submit(stream[i])
				}
				if w == 0 {
					// Duplicate delivery: a second full pass racing the
					// first; the store's dedup must absorb every repeat
					// before it reaches the aggregator.
					for _, e := range stream {
						store.Submit(e)
					}
				}
			}(w)
		}
		wg.Wait()
		assertEquivalent(t, fmt.Sprintf("concurrent shards=%d", shards), a, kept, opts)
	}
}

// TestStreamingEquivalenceDuplicateDelivery: replaying the whole stream
// again — and again in reverse — changes nothing.
func TestStreamingEquivalenceDuplicateDelivery(t *testing.T) {
	stream := aggStream(9, 900)
	opts := testOpts(4)
	a := New(opts)
	store := beacon.NewStore()
	kept := beacon.Record(store)
	store.AddObserver(a.Observe)
	for _, e := range stream {
		store.Submit(e)
	}
	once := a.Snapshot()
	for _, e := range stream {
		store.Submit(e)
	}
	for i := len(stream) - 1; i >= 0; i-- {
		store.Submit(stream[i])
	}
	if !reflect.DeepEqual(once, a.Snapshot()) {
		t.Fatal("duplicate delivery changed the aggregates")
	}
	assertEquivalent(t, "duplicates", a, kept, opts)
}

// TestStreamingEquivalenceCrashRecovery: an aggregator rebuilt by WAL
// replay on boot (observer attached before OpenDurable, exactly as
// qtag-server wires it) equals both the pre-crash aggregator and the
// batch oracle — including when a snapshot+compaction ran mid-stream,
// so part of the state is restored from the snapshot and the rest from
// the WAL tail.
func TestStreamingEquivalenceCrashRecovery(t *testing.T) {
	stream := aggStream(0xfeed, 1000)
	dir := t.TempDir()
	opts := testOpts(8)

	a1 := New(opts)
	store1 := beacon.NewStore()
	store1.AddObserver(a1.Observe)
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store1)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	sink := beacon.Tee(store1, wj)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		if err := sink.Submit(e); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if _, err := wj.Snapshot(store1); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, e := range stream[half:] {
		if err := sink.Submit(e); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	preCrash := a1.Snapshot()
	// Crash: no Close, no final sync beyond FsyncAlways's per-record
	// guarantee. Everything submitted is durable.

	a2 := New(opts)
	store2 := beacon.NewStore()
	kept2 := beacon.Record(store2)
	store2.AddObserver(a2.Observe) // before replay, as in cmd/qtag-server
	wj2, rec, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store2)
	if err != nil {
		t.Fatalf("reopen durable: %v", err)
	}
	defer wj2.Close()
	if got := rec.SnapshotRestored + rec.Replayed; got == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if rec.SnapshotRestored == 0 {
		t.Fatal("recovery did not restore from the snapshot")
	}
	if store2.Len() != store1.Len() {
		t.Fatalf("recovered %d events, want %d", store2.Len(), store1.Len())
	}
	if got := a2.Snapshot(); !reflect.DeepEqual(got, preCrash) {
		t.Fatalf("rebuilt aggregates != pre-crash aggregates\n got: %+v\nwant: %+v", got, preCrash)
	}
	assertEquivalent(t, "crash-recovery", a2, kept2, opts)
}

// TestStreamingEquivalenceSecondObserver: attaching another observer
// alongside the aggregator (as qtag-server does with internal/detect)
// must not perturb the aggregates — the fan-out delivers the identical
// first-seen stream to both, and the second hook sees every distinct
// event exactly once.
func TestStreamingEquivalenceSecondObserver(t *testing.T) {
	stream := aggStream(0xcafe, 1100)
	opts := testOpts(8)
	a := New(opts)
	store := beacon.NewStore()
	kept := beacon.Record(store)
	store.AddObserver(a.Observe)
	var mu sync.Mutex
	counts := map[string]int{}
	store.AddObserver(func(e beacon.Event) {
		mu.Lock()
		counts[e.Key()]++
		mu.Unlock()
	})
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				store.Submit(stream[i])
			}
		}(w)
	}
	wg.Wait()
	for _, e := range stream { // duplicate pass: neither observer fires again
		store.Submit(e)
	}
	if len(counts) != store.Len() {
		t.Fatalf("second observer saw %d distinct events, store holds %d", len(counts), store.Len())
	}
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("second observer saw %q %d times", k, n)
		}
	}
	assertEquivalent(t, "second-observer", a, kept, opts)
}
