// What the collector keeps per event and per impression (DESIGN.md §10
// "Store layout", §11): how much of it there is, that none of it aliases
// the request it arrived in, and that the idempotency key is the five
// fields, not their '|'-joined rendering.
//
// External test package: everything goes through the public API, with the
// observers wired the way cmd/qtag-server wires them.
package beacon_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// benchShapedEvents draws impressions the way bench/gen.go does: served →
// loaded → in-view (p 0.6) → out-of-view (p 0.5) over 99 campaigns, with
// the same id and meta shapes. It returns the events and how many
// impressions they belong to.
func benchShapedEvents(impressions int) ([]Event, int) {
	rng := simrand.New(1).Fork("layout")
	base := time.Unix(1546300800, 0).UTC()
	events := make([]Event, 0, impressions*3)
	for imp := 0; imp < impressions; imp++ {
		meta := Meta{
			OS:       []string{"android", "ios"}[rng.Intn(2)],
			SiteType: []string{"app", "browser"}[rng.Intn(2)],
			Format:   []string{"display", "video"}[rng.Intn(2)],
			AdSize:   []string{"300x250", "320x50", "728x90"}[rng.Intn(3)],
			Slot:     "slot-" + strconv.Itoa(rng.Intn(40)),
		}
		at := base.Add(time.Duration(imp) * 20 * time.Millisecond)
		ev := Event{
			ImpressionID: "s1-closed-" + strconv.Itoa(imp),
			CampaignID:   "camp-" + strconv.Itoa(1+rng.Intn(99)),
			Type:         EventServed, At: at, Meta: meta,
		}
		events = append(events, ev)
		ev.Source, ev.Type, ev.At = SourceQTag, EventLoaded, at.Add(700*time.Millisecond)
		events = append(events, ev)
		if rng.Bool(0.6) {
			ev.Type, ev.At = EventInView, ev.At.Add(2*time.Second)
			events = append(events, ev)
			if rng.Bool(0.5) {
				ev.Type, ev.At = EventOutOfView, ev.At.Add(3*time.Second)
				events = append(events, ev)
			}
		}
	}
	return events, impressions
}

// heapGrowth runs fill and returns how many live heap bytes it left
// behind, as bench/layers.go measures store.heap_bytes_per_event: the
// HeapAlloc difference between two collected heaps.
func heapGrowth(fill func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fill()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}

// TestMemoryBudgets pins the pointer-free layouts by what they cost. The
// budgets sit above what the layouts measure here (store 115 B/event,
// aggregate 116 and detect 122 B/impression on their own, 124 for the
// two joined as the collector wires them) and well below what the
// map[string]Event store and the map-of-maps impressions did (388, 616
// and 606) — and the joined row's below the 238 the two cost apart, so
// a return to either, or to a table per observer, fails here.
func TestMemoryBudgets(t *testing.T) {
	events, impressions := benchShapedEvents(40_000)
	// The fill must not retain the events' own strings (nothing may, see
	// TestNothingKeptAliasesTheRequest), so they are no part of the growth.
	var (
		store  = NewStore()
		agg    = aggregate.New(aggregate.Options{TTL: -1})
		det    = detect.New(detect.Options{TTL: -1})
		pair   = aggregate.New(aggregate.Options{TTL: -1})
		joined = detect.New(detect.Options{})
	)
	joined.Join(pair.Pass())
	for _, c := range []struct {
		name   string
		budget float64
		per    int
		unit   string
		submit func(Event)
	}{
		{"store", 200, len(events), "event", func(e Event) { _ = store.Submit(e) }},
		{"aggregate", 260, impressions, "impression", agg.Observe},
		{"detect", 260, impressions, "impression", det.Observe},
		{"aggregate+detect joined", 130, impressions, "impression", pair.Observe},
	} {
		grew := heapGrowth(func() {
			for _, e := range events {
				c.submit(e)
			}
		})
		got := grew / float64(c.per)
		t.Logf("%s: %.0f B/%s", c.name, got, c.unit)
		if got > c.budget {
			t.Errorf("%s holds %.0f B/%s, budget %.0f", c.name, got, c.unit, c.budget)
		}
	}
	if store.Len() != len(events) || agg.OpenImpressions() != impressions || det.OpenImpressions() != impressions ||
		joined.OpenImpressions() != impressions || joined.Updates() != int64(len(events)) {
		t.Fatalf("fill incomplete: store %d/%d events, aggregate %d, detect %d and joined %d of %d impressions",
			store.Len(), len(events), agg.OpenImpressions(), det.OpenImpressions(), joined.OpenImpressions(), impressions)
	}
	runtime.KeepAlive(events)
}

// observed is one ingest side with both observers attached.
type observed struct {
	store *Store
	agg   *aggregate.Aggregator
	det   *detect.Detector
}

func newObserved() observed {
	clock := func() time.Time { return batchT0 }
	o := observed{
		store: NewStoreWithShards(4),
		agg:   aggregate.New(aggregate.Options{Shards: 4, TTL: -1, Now: clock}),
		det:   detect.New(detect.Options{Shards: 4, TTL: -1, Now: clock}),
	}
	o.store.AddObserver(o.agg.Observe)
	o.store.AddObserver(o.det.Observe)
	o.store.AddDupObserver(o.det.ObserveDup)
	return o
}

// state is everything a reader can get out of an ingest side.
func (o observed) state() []any {
	return []any{o.store.Events(), o.store.Counters(), o.store.CampaignIDs(), o.agg.Snapshot(), o.agg.Windows(), o.det.Snapshot()}
}

// TestNothingKeptAliasesTheRequest decodes a batch the way the server
// does — BatchDecoder, strings aliasing the body — submits it, then
// overwrites the body. Whatever store, aggregator or detector kept must
// be its own copy: every read must equal that of a side fed events that
// never shared memory with anything.
func TestNothingKeptAliasesTheRequest(t *testing.T) {
	events := batchStream(7, 400)
	for i := range events {
		// Literal sources, and every string a key or a map somewhere keeps.
		if i%5 == 0 && events[i].Type != EventServed {
			events[i].Source = Source("verifier-" + strconv.Itoa(i%3))
		}
		events[i].Meta.Slot = "slot-" + strconv.Itoa(i%7)
		events[i].Meta.Country = []string{"es", "us", ""}[i%3]
		events[i].Meta.Exchange = "x" + strconv.Itoa(i%2)
		events[i].Trace = "00-" + fmt.Sprintf("%032x-%016x", i+1, i+1) + "-01"
	}
	want, got := newObserved(), newObserved()
	if err := want.store.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}

	body := AppendBinaryEvents(nil, events)
	var dec BatchDecoder
	aliased, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.store.SubmitBatch(aliased); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xA5
	}
	if w, g := want.state(), got.state(); !reflect.DeepEqual(w, g) {
		for i := range w {
			if !reflect.DeepEqual(w[i], g[i]) {
				t.Errorf("read %d differs after the request body was overwritten:\n want %+v\n  got %+v", i, w[i], g[i])
			}
		}
	}
	// A re-send decoded into fresh memory must still be recognised.
	if err := got.store.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if got.store.Len() != want.store.Len() {
		t.Fatalf("re-send after the overwrite stored %d new events", got.store.Len()-want.store.Len())
	}
}

// TestKeyFieldsNotTheirRendering is the '|' regression: two events whose
// display keys coincide but whose fields differ are two events —
// everywhere: the store, the observers, a WAL replay and a snapshot
// restore.
func TestKeyFieldsNotTheirRendering(t *testing.T) {
	at := batchT0
	pairs := [][2]Event{
		{
			{CampaignID: "a|b", ImpressionID: "c", Type: EventServed, At: at},
			{CampaignID: "a", ImpressionID: "b|c", Type: EventServed, At: at},
		},
		{
			{CampaignID: "k", ImpressionID: "i|qtag", Source: "x", Type: EventLoaded, At: at},
			{CampaignID: "k", ImpressionID: "i", Source: "qtag|x", Type: EventLoaded, At: at},
		},
	}
	var events []Event
	for _, p := range pairs {
		if p[0].Key() != p[1].Key() {
			t.Fatalf("test premise: %q and %q should render alike", p[0].Key(), p[1].Key())
		}
		events = append(events, p[0], p[1])
	}

	dir := filepath.Join(t.TempDir(), "wal")
	live := newObserved()
	wj, _, err := OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, live.store)
	if err != nil {
		t.Fatal(err)
	}
	sink := Tee(live.store, wj)
	for _, e := range events {
		if err := sink.Submit(e); err != nil {
			t.Fatal(err)
		}
		if err := sink.Submit(e); err != nil { // and its own duplicate still dedups
			t.Fatal(err)
		}
	}
	if n := live.store.Len(); n != len(events) {
		t.Fatalf("store holds %d events, want %d: a beacon was absorbed by another's key", n, len(events))
	}
	if got := live.agg.OpenImpressions(); got != 4 {
		t.Fatalf("aggregate sees %d impressions, want 4", got)
	}
	if got := live.det.OpenImpressions(); got != 4 {
		t.Fatalf("detect sees %d impressions, want 4", got)
	}
	if got := live.agg.Updates(); got != int64(len(events)) {
		t.Fatalf("aggregate folded %d events, want %d", got, len(events))
	}

	// WAL replay.
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := newObserved()
	wj, rec, err := OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, replayed.store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 2*len(events) {
		t.Fatalf("replayed %d records, want %d", rec.Replayed, 2*len(events))
	}
	if !reflect.DeepEqual(replayed.state(), live.state()) {
		t.Fatalf("WAL replay differs from the live side:\n live %+v\n replay %+v", live.store.Events(), replayed.store.Events())
	}

	// Snapshot restore: the WAL segments the snapshot covers are gone.
	if wrote, err := wj.Snapshot(replayed.store); err != nil || !wrote {
		t.Fatalf("snapshot: wrote=%v err=%v", wrote, err)
	}
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}
	restored := newObserved()
	wj, rec, err = OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, restored.store)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	if rec.SnapshotRestored != len(events) {
		t.Fatalf("snapshot restored %d events, want %d", rec.SnapshotRestored, len(events))
	}
	if !reflect.DeepEqual(restored.store.Events(), live.store.Events()) ||
		!reflect.DeepEqual(restored.agg.Snapshot(), live.agg.Snapshot()) {
		t.Fatalf("snapshot restore differs from the live side:\n live %+v\n restored %+v", live.store.Events(), restored.store.Events())
	}
}
