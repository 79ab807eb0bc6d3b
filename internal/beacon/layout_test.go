// What the collector keeps per event and per impression (DESIGN.md §10
// "Store layout", §11): how much of it there is, that none of it aliases
// the request it arrived in, and that the idempotency key is the five
// fields, not their '|'-joined rendering.
//
// External test package: everything goes through the public API, with the
// observers wired the way cmd/qtag-server wires them.
package beacon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/detect"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// benchShaped draws impressions the way bench/gen.go does: served →
// loaded → in-view (p 0.6) → out-of-view (p 0.5) over 99 campaigns, with
// the same id and meta shapes — about 2.9 events an impression — and
// hands each event to emit as it is drawn.
func benchShaped(impressions int, emit func(Event)) {
	rng := simrand.New(1).Fork("layout")
	base := time.Unix(1546300800, 0).UTC()
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
		emit(ev)
		ev.Source, ev.Type, ev.At = SourceQTag, EventLoaded, at.Add(700*time.Millisecond)
		emit(ev)
		if rng.Bool(0.6) {
			ev.Type, ev.At = EventInView, ev.At.Add(2*time.Second)
			emit(ev)
			if rng.Bool(0.5) {
				ev.Type, ev.At = EventOutOfView, ev.At.Add(3*time.Second)
				emit(ev)
			}
		}
	}
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
// budgets sit above what the layouts measure here (store 50 B/event at
// 116 k events and 34 at the 1.16 M sink_batch_binary sends, aggregate
// 116 and detect 123 B/impression on their own, 124 for the two joined
// as the collector wires them) and well below what the map[string]Event
// store and the map-of-maps impressions did (388, 616 and 606) — the
// store's also below the 86 and 64 its records cost when every event was
// a whole record with an index entry of its own, and the joined row's
// below the 238 the two cost apart, so a return to any of these fails
// here.
func TestMemoryBudgets(t *testing.T) {
	const impressions = 40_000
	var events []Event
	benchShaped(impressions, func(e Event) { events = append(events, e) })
	drawn := func(emit func(Event)) {
		for _, e := range events {
			emit(e)
		}
	}
	// The fill must not retain the events' own strings (nothing may, see
	// TestNothingKeptAliasesTheRequest), so they are no part of the growth
	// — not even at bench scale, where they are drawn as they are stored.
	var (
		store  = NewStore()
		large  = NewStore()
		agg    = aggregate.New(aggregate.Options{TTL: -1})
		det    = detect.New(detect.Options{TTL: -1})
		pair   = aggregate.New(aggregate.Options{TTL: -1})
		joined = detect.New(detect.Options{})
	)
	joined.Join(pair.Pass())
	largeEvents := 0
	for _, c := range []struct {
		name   string
		budget float64
		unit   string
		draw   func(emit func(Event))
		submit func(Event)
	}{
		{"store", 60, "event", drawn, func(e Event) { _ = store.Submit(e) }},
		{"store at bench scale", 42, "event", func(emit func(Event)) { benchShaped(10*impressions, emit) },
			func(e Event) { _ = large.Submit(e); largeEvents++ }},
		{"aggregate", 260, "impression", drawn, agg.Observe},
		{"detect", 260, "impression", drawn, det.Observe},
		{"aggregate+detect joined", 130, "impression", drawn, pair.Observe},
	} {
		n := 0
		grew := heapGrowth(func() {
			c.draw(func(e Event) {
				c.submit(e)
				n++
			})
		})
		per := n
		if c.unit == "impression" {
			per = impressions
		}
		got := grew / float64(per)
		t.Logf("%s: %.0f B/%s", c.name, got, c.unit)
		if got > c.budget {
			t.Errorf("%s holds %.0f B/%s, budget %.0f", c.name, got, c.unit, c.budget)
		}
	}
	if store.Len() != len(events) || large.Len() != largeEvents || agg.OpenImpressions() != impressions ||
		det.OpenImpressions() != impressions || joined.OpenImpressions() != impressions || joined.Updates() != int64(len(events)) {
		t.Fatalf("fill incomplete: store %d/%d and %d/%d events, aggregate %d, detect %d and joined %d of %d impressions",
			store.Len(), len(events), large.Len(), largeEvents, agg.OpenImpressions(), det.OpenImpressions(),
			joined.OpenImpressions(), impressions)
	}
	runtime.KeepAlive(events)
}

// observed is one ingest side with both observers attached.
type observed struct {
	store *Store
	agg   *aggregate.Aggregator
	det   *detect.Detector
}

func newObserved() observed { return newObservedOn(NewStoreWithShards(4)) }

// newObservedOn attaches both observers to store.
func newObservedOn(store *Store) observed {
	clock := func() time.Time { return batchT0 }
	o := observed{
		store: store,
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

// TestNothingKeptAliasesTheRequest drives whole collector stacks, as
// collector.Open assembles them, with binary requests whose bodies the
// server overwrites as it gives their buffers back to the pool: every
// event first-seen, then every event again as a duplicate. Whatever a
// stack kept — store, observers, queue, WAL, cluster forward, span
// store — must be its own copy: every read must equal that of the same
// stack fed the same events as JSON, whose decoder copies every string
// out of the body.
func TestNothingKeptAliasesTheRequest(t *testing.T) {
	events := aliasProbe()
	for _, c := range []struct {
		name  string
		nodes int
		set   func(*collector.Config)
	}{
		{"sync", 1, func(c *collector.Config) { c.DurableSync = true }},
		{"async", 1, func(*collector.Config) {}},
		{"ring", 2, func(*collector.Config) {}},
		{"traced", 1, func(c *collector.Config) { c.TraceSample = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := collector.DefaultConfig()
			cfg.Detect, cfg.SnapshotEvery = true, 0 // the WAL replay reads every record
			cfg.ReportWindow = 1 << 62              // one rollup window, whenever each side runs
			cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
			c.set(&cfg)
			want := ingestAll(t, c.nodes, cfg, events, false)
			got := ingestAll(t, c.nodes, cfg, events, true)
			for n := range want {
				for i := range want[n] {
					if !reflect.DeepEqual(want[n][i], got[n][i]) {
						t.Errorf("node %d, read %d differs after the request bodies were overwritten:\n want %+v\n  got %+v",
							n, i, want[n][i], got[n][i])
					}
				}
			}
		})
	}
}

// aliasProbe is the stream TestNothingKeptAliasesTheRequest sends: every
// string a key or a map somewhere keeps is set, some sources are
// literals, and every event carries its own time and trace, so that
// nothing a stack stamps on arrival differs between two runs. In-views
// crowd onto one placement, so that the detector's stacking score reads
// its placement counts.
func aliasProbe() []Event {
	events := batchStream(7, 1000)
	for i := range events {
		if i%5 == 0 && events[i].Type != EventServed {
			events[i].Source = Source("verifier-" + strconv.Itoa(i%3))
		}
		if events[i].At.IsZero() {
			events[i].At = batchT0
		}
		events[i].Meta.Slot = []string{"slot-0", "slot-0", "slot-0", "slot-" + strconv.Itoa(i%7)}[i%4]
		events[i].Meta.Country = []string{"es", "us", ""}[i%3]
		events[i].Meta.Exchange = "x" + strconv.Itoa(i%2)
		events[i].Trace = "00-" + fmt.Sprintf("%032x-%016x", i+1, i+1) + "-01"
	}
	return events
}

// ingestAll boots nodes stacks of cfg — two make a ring, each node the
// other's peer — and posts events to them, alternating nodes: in
// requests of 64, then all again in requests of 50. Binary requests
// (and binary cluster forwards), the bodies overwritten as they go back
// to the pool, when binary; JSON otherwise. It returns what each node
// reads back: its /report, store, counters, detector and /debug/traces,
// then, once the stacks are closed, a replay of its WAL.
func ingestAll(t *testing.T, nodes int, cfg collector.Config, events []Event, binary bool) [][]any {
	t.Helper()
	cfg.BinaryBeacons = binary
	servers := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	stacks := make([]*collector.Stack, nodes)
	for i, srv := range servers {
		c := cfg
		c.WALDir = t.TempDir()
		if nodes > 1 {
			c.NodeID, c.HandoffDir, c.Peers = "n"+strconv.Itoa(i), t.TempDir(), map[string]string{}
			for j, u := range urls {
				if j != i {
					c.Peers["n"+strconv.Itoa(j)] = u
				}
			}
		}
		stack, err := collector.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = stack
		if binary {
			stack.Server.ScribbleReleasedBodies()
		}
		srv.Config.Handler = stack.Handler()
		srv.Start()
		stack.Start()
	}
	shutdown := func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, stack := range stacks {
			if err := stack.Close(context.Background()); err != nil {
				t.Error(err)
			}
		}
	}
	defer shutdown()

	posted := 0
	for _, size := range []int{64, 50} {
		for lo := 0; lo < len(events); lo += size {
			batch := events[lo:min(lo+size, len(events))]
			body, contentType := AppendBinaryEvents(nil, batch), BinaryContentType
			if !binary {
				body, _ = json.Marshal(batch)
				contentType = "application/json"
			}
			resp, err := http.Post(urls[posted%nodes]+"/v1/events", contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST of %d events: status %d", len(batch), resp.StatusCode)
			}
			posted++
		}
	}

	reads := make([][]any, nodes)
	for i, stack := range stacks {
		reads[i] = []any{getJSON(t, urls[i]+"/report"), stack.Store.Events(), stack.Store.Counters(),
			stack.Server.Accepted(), stack.Server.Rejected(), stack.Detect.Snapshot()}
		if cfg.TraceSample > 0 {
			reads[i] = append(reads[i], traceSummaries(getJSON(t, urls[i]+"/debug/traces?limit=100000")))
		}
	}
	shutdown()
	for i, stack := range stacks {
		replayed := NewStore()
		if _, err := ReplayWALDir(stack.Journal.WAL().Dir(), replayed); err != nil {
			t.Fatal(err)
		}
		if replayed.Len() != len(reads[i][1].([]Event)) || replayed.Len() == 0 {
			t.Fatalf("node %d: WAL replay restored %d events, the store held %d", i, replayed.Len(), len(reads[i][1].([]Event)))
		}
		reads[i] = append(reads[i], replayed.Events())
	}
	return reads
}

// getJSON decodes a GET's JSON reply, less what says when it was made.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	delete(out, "generated_at")
	return out
}

// traceSummaries is a /debug/traces listing without the trace ids, start
// times and durations that differ from run to run, in a fixed order.
func traceSummaries(listing map[string]any) []string {
	var out []string
	traces, _ := listing["traces"].([]any)
	for _, tr := range traces {
		m := tr.(map[string]any)
		delete(m, "trace_id")
		delete(m, "start")
		delete(m, "duration_ms")
		b, _ := json.Marshal(m)
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

// TestCollidingImpressionsFallBackToAnchors zeroes the index hash, so
// that every record of a shard is on one chain and the head an event's
// lookup finds is whatever its shard stored last. Where that is another
// impression's record the event cannot follow on it and is written as
// an anchor; where it is the impression's own, the event follows on.
// Either way the store must read back, dedup and feed its observers
// exactly as the hashed store does — and that one, whose heads are each
// impression's own, stores one anchor per impression.
func TestCollidingImpressionsFallBackToAnchors(t *testing.T) {
	const interleaved, inARow = 40, 10
	lifecycle := []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}
	event := func(imp, step int) Event {
		e := Event{
			ImpressionID: "imp-" + strconv.Itoa(imp), CampaignID: "camp-1",
			Type: lifecycle[min(step, 2+step%2)], Seq: max(0, step-2) / 2,
			At:   batchT0.Add(time.Duration(imp)*time.Second + time.Duration(step)*700*time.Millisecond),
			Meta: Meta{OS: "android", Slot: "slot-1"},
		}
		if imp >= interleaved { // campaigns and Meta of their own
			e.CampaignID, e.Meta.OS, e.Meta.Slot = "camp-"+strconv.Itoa(imp%3), "ios", "slot-"+strconv.Itoa(imp%5)
		}
		if e.Type != EventServed {
			e.Source = []Source{SourceQTag, SourceCommercial}[imp%2]
		}
		return e
	}
	// Round by round, one event of every interleaved impression: the
	// head each finds in its shard is another impression's, of the same
	// campaign and Meta, so only the impression id tells them apart. Then
	// whole impressions in a row — the last with more in-view cycles than
	// an impression chain takes.
	var events []Event
	for step := 0; step < 4; step++ {
		for imp := 0; imp < interleaved; imp++ {
			events = append(events, event(imp, step))
		}
	}
	for imp := interleaved; imp < interleaved+inARow; imp++ {
		steps := 4
		if imp == interleaved+inARow-1 {
			steps = 40
		}
		for step := 0; step < steps; step++ {
			events = append(events, event(imp, step))
		}
	}

	hashed, colliding := newObserved(), newObservedOn(NewCollidingStore(4))
	for _, o := range []observed{hashed, colliding} {
		half := len(events) / 2
		if err := o.store.SubmitBatch(events[:half]); err != nil {
			t.Fatal(err)
		}
		for _, e := range events[half:] {
			if err := o.store.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	impressions := interleaved + inARow
	if n := hashed.store.Anchors(); n != impressions {
		t.Errorf("the hashed store holds %d anchors, want one for each of %d impressions", n, impressions)
	}
	if n := colliding.store.Anchors(); n <= impressions+interleaved || n >= len(events) {
		t.Errorf("the colliding store holds %d anchors of %d events: want a fallback for most interleaved events and follow-ons in a row",
			n, len(events))
	}
	for pass := 0; pass < 2; pass++ {
		if w, g := hashed.state(), colliding.state(); !reflect.DeepEqual(w, g) {
			for i := range w {
				if !reflect.DeepEqual(w[i], g[i]) {
					t.Errorf("pass %d: read %d differs under forced collisions:\n hashed    %+v\n colliding %+v", pass, i, w[i], g[i])
				}
			}
		}
		for _, o := range []observed{hashed, colliding} { // every event again: duplicates
			if err := o.store.SubmitBatch(events); err != nil {
				t.Fatal(err)
			}
			if o.store.Len() != len(events) {
				t.Fatalf("a re-send stored %d new events", o.store.Len()-len(events))
			}
		}
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
