// The batch path (one SubmitBatch per request, DESIGN.md §10) must be
// observationally invisible: for any request sequence — JSON and binary,
// duplicates inside one request and across requests, sequential or
// concurrent — it leaves the store, the streaming aggregator, the fraud
// detector and the WAL exactly as a chain that takes one event per call
// does, and as the default async wiring does once its queue has drained. What it may change is counts of work:
// hand-offs, writes and, under -fsync always, fsyncs per request.
//
// External test package like durable_test.go: everything goes through
// the public API, wired the way cmd/qtag-server wires -durable-sync.
package beacon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

var batchT0 = time.Unix(1500000000, 0).UTC()

// chainKind picks the ingest chain an ingestStack's server feeds.
type chainKind int

const (
	// syncChain is the -durable-sync chain with both observers attached:
	// StampSink → Tee(store, breaker → journal.RequestSink()).
	syncChain chainKind = iota
	// perEventChain hides the same chain behind a SinkFunc, which takes
	// one event per call: one group commit per event.
	perEventChain
	// asyncChain is the default wiring: StampSink → Tee(store, queue →
	// breaker → journal), the journal's flush face.
	asyncChain
)

type ingestStack struct {
	store  *Store
	agg    *aggregate.Aggregator
	det    *detect.Detector
	wj     *WALJournal
	queue  *QueueSink // asyncChain only
	server *Server
	dir    string
}

func newIngestStack(t testing.TB, opts wal.Options, kind chainKind) *ingestStack {
	t.Helper()
	clock := func() time.Time { return batchT0 }
	s := &ingestStack{
		store: NewStoreWithShards(8),
		agg:   aggregate.New(aggregate.Options{Shards: 8, TTL: -1, Now: clock}),
		det:   detect.New(detect.Options{Shards: 8, TTL: -1, Now: clock}),
		dir:   opts.Dir,
	}
	s.store.AddObserver(s.agg.Observe)
	s.store.AddObserver(s.det.Observe)
	s.store.AddDupObserver(s.det.ObserveDup)
	var err error
	if s.wj, _, err = OpenDurable(opts, s.store); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.wj.Close() })
	chain := Tee(s.store, NewCircuitBreaker(s.wj.RequestSink(), 0, 0))
	switch kind {
	case perEventChain:
		chain = SinkFunc(chain.Submit)
	case asyncChain:
		s.queue = NewQueueSink(NewCircuitBreaker(s.wj, 0, 0), QueueOptions{})
		t.Cleanup(func() { s.queue.Close(context.Background()) }) // before the journal's
		chain = Tee(s.store, s.queue)
	}
	s.server = NewServerWithSink(s.store, &StampSink{Next: chain, Now: clock})
	return s
}

// post sends one request body and returns the status and reply.
func (s *ingestStack) post(t testing.TB, body []byte, binary bool) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
	if binary {
		req.Header.Set("Content-Type", BinaryContentType)
	}
	w := httptest.NewRecorder()
	s.server.ServeHTTP(w, req)
	var reply map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply %q: %v", w.Body.String(), err)
	}
	return w.Code, reply
}

// walRecords drains the queue, if any, closes the journal and returns
// every record payload in index order.
func (s *ingestStack) walRecords(t testing.TB) []string {
	t.Helper()
	if s.queue != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.queue.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.wj.Close(); err != nil {
		t.Fatal(err)
	}
	var out []string
	if _, err := wal.Scan(nil, s.dir, func(_ uint64, payload []byte) error {
		out = append(out, string(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// batchStream draws n events with deliberate key collisions. Every
// non-key field is derived from the key, so duplicates are
// byte-identical — the precondition for order independence — and one
// impression in eleven carries no timestamp, for StampSink to fill.
func batchStream(seed uint64, n int) []Event {
	rng := simrand.New(seed).Fork("batch-path-stream")
	types := []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}
	sources := []Source{SourceQTag, SourceCommercial}
	formats := []string{"banner", "interstitial", "video", ""}
	sizes := []string{"300x250", "1x1", "728x90", ""}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		typ := types[rng.Intn(len(types))]
		imp := rng.Intn(n/4 + 1)
		e := Event{
			ImpressionID: fmt.Sprintf("imp-%d", imp),
			CampaignID:   fmt.Sprintf("camp-%d", imp%5),
			Type:         typ,
			Seq:          imp % 2,
			Meta: Meta{
				Format: formats[imp%len(formats)],
				AdSize: sizes[imp%len(sizes)],
				Slot:   fmt.Sprintf("slot-%d", imp%3),
				OS:     "android",
			},
		}
		if imp%11 != 0 {
			e.At = batchT0.Add(time.Duration(imp) * time.Second)
			if typ == EventOutOfView {
				e.At = e.At.Add(time.Duration(imp%5) * 700 * time.Millisecond)
			}
		}
		if typ != EventServed {
			e.Source = sources[imp%len(sources)]
		}
		out = append(out, e)
	}
	return out
}

// requestBodies cuts the stream into requests of 1..64 events,
// alternating JSON and binary bodies.
func requestBodies(t testing.TB, seed uint64, stream []Event) (bodies [][]byte, binary []bool) {
	t.Helper()
	rng := simrand.New(seed).Fork("batch-path-cuts")
	for len(stream) > 0 {
		n := min(1+rng.Intn(64), len(stream))
		if len(bodies)%2 == 0 {
			body, err := json.Marshal(stream[:n])
			if err != nil {
				t.Fatal(err)
			}
			bodies, binary = append(bodies, body), append(binary, false)
		} else {
			bodies, binary = append(bodies, AppendBinaryEvents(nil, stream[:n])), append(binary, true)
		}
		stream = stream[n:]
	}
	return bodies, binary
}

// assertSameState compares everything downstream of the handler.
func assertSameState(t *testing.T, label string, got, want *ingestStack) {
	t.Helper()
	if g, w := got.store.Events(), want.store.Events(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Store.Events() differ: %d vs %d events", label, len(g), len(w))
	}
	if g, w := got.agg.Snapshot(), want.agg.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: aggregate.Snapshot() differs:\n got %+v\nwant %+v", label, g, w)
	}
	if g, w := got.agg.Slices(), want.agg.Slices(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: aggregate.Slices() differ:\n got %+v\nwant %+v", label, g, w)
	}
	if g, w := got.agg.Campaigns(), len(want.agg.CampaignIDs()); g != w {
		t.Fatalf("%s: Campaigns = %d, want %d", label, g, w)
	}
	if g, w := got.det.Snapshot(), want.det.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: detect.Snapshot() differs:\n got %+v\nwant %+v", label, g, w)
	}
}

// TestBatchPathEquivalence: the same requests, in the same order,
// through the batch path, a chain that takes one event per call and the
// default async wiring — same replies, same state; the same WAL records
// in the same order as per event, and one group commit per request
// instead of one per event; the same WAL records as the queue flushes
// once it has drained.
func TestBatchPathEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2019, 0xdeadbeef} {
		stream := batchStream(seed, 1500)
		bodies, binary := requestBodies(t, seed, stream)
		opts := func() wal.Options { return wal.Options{Dir: t.TempDir(), GroupCommit: true} }
		batch, perEvent := newIngestStack(t, opts(), syncChain), newIngestStack(t, opts(), perEventChain)
		async := newIngestStack(t, opts(), asyncChain)
		for i, body := range bodies {
			gotCode, got := batch.post(t, body, binary[i])
			for _, other := range []*ingestStack{perEvent, async} {
				wantCode, want := other.post(t, body, binary[i])
				if gotCode != wantCode || gotCode != http.StatusAccepted || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d request %d: batch path answered %d %v, another chain %d %v",
						seed, i, gotCode, got, wantCode, want)
				}
			}
		}
		label := fmt.Sprintf("seed=%d", seed)
		assertSameState(t, label, batch, perEvent)
		if g, w := batch.wj.WAL().GroupCommits(), int64(len(bodies)); g != w {
			t.Fatalf("%s: batch path made %d group commits for %d requests", label, g, w)
		}
		if g, w := perEvent.wj.WAL().GroupCommits(), int64(len(stream)); g != w {
			t.Fatalf("%s: per-event path made %d group commits for %d events", label, g, w)
		}
		want := batch.walRecords(t)
		if got := perEvent.walRecords(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: WAL record sequences differ: %d vs %d records", label, len(got), len(want))
		}
		// Drained and closed, the async stack holds the same state and
		// the same records; the queue's flushes need not cut them where
		// the requests did, so they are compared as a multiset.
		got := async.walRecords(t)
		assertSameState(t, label+" async", async, batch)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: async WAL record multiset differs: %d vs %d records", label, len(got), len(want))
		}
	}
}

// TestBatchPathConcurrentEquivalence: the requests posted from many
// goroutines at once — plus a full duplicate pass racing them —
// converge on what the per-event path reaches sequentially. Under -race
// this is also the proof that shard-grouped apply, the pooled scratch
// and the shared group committer are race free.
func TestBatchPathConcurrentEquivalence(t *testing.T) {
	stream := batchStream(77, 2000)
	bodies, binary := requestBodies(t, 77, stream)
	opts := func() wal.Options { return wal.Options{Dir: t.TempDir(), GroupCommit: true} }
	batch, perEvent := newIngestStack(t, opts(), syncChain), newIngestStack(t, opts(), perEventChain)
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			if code, reply := perEvent.post(t, body, binary[i]); code != http.StatusAccepted {
				t.Fatalf("per-event request %d: %d %v", i, code, reply)
			}
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += workers {
				if code, reply := batch.post(t, bodies[i], binary[i]); code != http.StatusAccepted {
					t.Errorf("request %d: %d %v", i, code, reply)
				}
			}
			if w == 0 {
				for i, body := range bodies {
					if code, reply := batch.post(t, body, binary[i]); code != http.StatusAccepted {
						t.Errorf("duplicate request %d: %d %v", i, code, reply)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	assertSameState(t, "concurrent", batch, perEvent)
	// The interleaving is unknown, so the WAL is compared as a multiset:
	// every accepted submission journalled exactly once.
	got, want := batch.walRecords(t), perEvent.walRecords(t)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent: WAL record multisets differ: %d vs %d records", len(got), len(want))
	}
}

// TestBatchPathRejectsWhole: an infrastructure failure rejects the
// request as a whole — 503, which a client retries, with rejected = N —
// and the breaker counts it as one failed request.
func TestBatchPathRejectsWhole(t *testing.T) {
	s := newIngestStack(t, wal.Options{Dir: t.TempDir()}, syncChain)
	body := AppendBinaryEvents(nil, batchStream(5, 64))
	if err := s.wj.Close(); err != nil { // the journal is down
		t.Fatal(err)
	}
	code, reply := s.post(t, body, true)
	if code != http.StatusServiceUnavailable || reply["accepted"] != 0.0 || reply["rejected"] != 64.0 {
		t.Fatalf("journal down: %d %v, want 503 with rejected=64", code, reply)
	}
	if got := s.server.Rejected(); got != 64 {
		t.Fatalf("qtag_ingest_rejected_total = %d, want 64", got)
	}
}

// uniqueEvents returns n served events of n impressions named
// prefix-0…, each new to a store.
func uniqueEvents(prefix string, n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{ImpressionID: fmt.Sprintf("%s-%d", prefix, i), CampaignID: "c1", Type: EventServed, At: batchT0}
	}
	return out
}

// idLog records the impressions a test journal was given, as copies.
type idLog struct {
	mu  sync.Mutex
	ids map[string]int
}

func (l *idLog) add(events ...Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ids == nil {
		l.ids = map[string]int{}
	}
	for _, e := range events {
		l.ids[e.ImpressionID]++ // a map key is a copy
	}
}

// missing returns the events' impressions the log never saw.
func (l *idLog) missing(events []Event) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range events {
		if l.ids[e.ImpressionID] == 0 {
			out = append(out, e.ImpressionID)
		}
	}
	return out
}

// gatedJournal is a journal a test holds shut: SubmitBatch waits until
// open is closed, then logs what it was given.
type gatedJournal struct {
	open chan struct{}
	idLog
}

func (g *gatedJournal) Submit(e Event) error { return g.SubmitBatch([]Event{e}) }

func (g *gatedJournal) SubmitBatch(events []Event) error {
	<-g.open
	g.add(events...)
	return nil
}

// TestOnePathRejectsWhole: whatever takes the request under the handler
// — a sink that takes one event per call and fails part way, a queue
// with no room for it — a failure refuses the request whole with a
// status the client retries (503, rejected = N), never a 202 for part of
// it. Re-sent by an HTTPSink once the failure has passed, every event
// lands: once in the store, and in the journal behind it.
func TestOnePathRejectsWhole(t *testing.T) {
	events := uniqueEvents("imp", 64)
	for _, tc := range []struct {
		name string
		// chain returns the sink under the handler, heal, which ends its
		// failure, and the log of what its journal took, complete once
		// settle has returned.
		chain func(t *testing.T, store *Store) (sink Sink, heal, settle func(), journal *idLog)
	}{
		{"SinkFunc under Tee", func(t *testing.T, store *Store) (Sink, func(), func(), *idLog) {
			log, calls := &idLog{}, 0
			journal := SinkFunc(func(e Event) error {
				if calls++; calls == 17 { // one failure, mid-request
					return ErrQueueFull
				}
				log.add(e)
				return nil
			})
			return Tee(store, journal), func() {}, func() {}, log
		}},
		{"QueueSink overflow", func(t *testing.T, store *Store) (Sink, func(), func(), *idLog) {
			journal := &gatedJournal{open: make(chan struct{})}
			q := NewQueueSink(journal, QueueOptions{Capacity: 100})
			var once sync.Once
			open := func() { once.Do(func() { close(journal.open) }) }
			t.Cleanup(func() { open(); q.Close(context.Background()) })
			// The overflow has passed once the backlog has left the queue.
			heal := func() {
				open()
				for deadline := time.Now().Add(5 * time.Second); q.Depth() > 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("queue did not drain: depth=%d", q.Depth())
					}
				}
			}
			// 48 events wait behind the shut journal: 64 more do not fit.
			if err := q.SubmitBatch(uniqueEvents("queued", 48)); err != nil {
				t.Fatal(err)
			}
			settle := func() {
				if err := q.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			return Tee(store, q), heal, settle, &journal.idLog
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore()
			sink, heal, settle, journal := tc.chain(t, store)
			server := NewServerWithSink(store, &StampSink{Next: sink, Now: time.Now})
			req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(AppendBinaryEvents(nil, events)))
			req.Header.Set("Content-Type", BinaryContentType)
			w := httptest.NewRecorder()
			server.ServeHTTP(w, req)
			var reply struct{ Accepted, Rejected int }
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
			if w.Code != http.StatusServiceUnavailable || reply.Accepted != 0 || reply.Rejected != 64 {
				t.Fatalf("%d accepted=%d rejected=%d, want 503 with rejected=64", w.Code, reply.Accepted, reply.Rejected)
			}

			heal()
			srv := httptest.NewServer(server)
			defer srv.Close()
			h := &HTTPSink{BaseURL: srv.URL, Binary: true}
			if err := h.SubmitBatch(events); err != nil {
				t.Fatalf("re-send: %v", err)
			}
			settle()
			if store.Len() != 64 {
				t.Fatalf("store holds %d events, want each of 64 once", store.Len())
			}
			if miss := journal.missing(events); len(miss) > 0 {
				t.Fatalf("the journal never took %d events, %v…", len(miss), miss[0])
			}
		})
	}
}

// TestQueueOverflowIsNotAcked: a request longer than the queue under the
// handler can never be queued, so it is refused whole, and the client is
// told it need not retry. Answering it 202 with part of it accepted made
// HTTPSink count the request delivered while the rest of it never
// reached the journal.
func TestQueueOverflowIsNotAcked(t *testing.T) {
	store := NewStore()
	journal := &gatedJournal{open: make(chan struct{})} // nothing leaves the queue
	q := NewQueueSink(journal, QueueOptions{Capacity: 16})
	srv := httptest.NewServer(NewServerWithSink(store, Tee(store, q)))
	defer srv.Close()
	h := &HTTPSink{BaseURL: srv.URL, Retries: 3, Binary: true, Sleep: func(time.Duration) {}}
	events := uniqueEvents("imp", 64)
	err := h.SubmitBatch(events)
	close(journal.open)
	if cerr := q.Close(context.Background()); cerr != nil {
		t.Fatal(cerr)
	}
	if miss := journal.missing(events); err == nil && len(miss) > 0 {
		t.Fatalf("HTTPSink delivered=%d failed=%d, but %d of the 64 events never reached the journal",
			h.Delivered(), h.Failed(), len(miss))
	}
	if !IsPermanent(err) || h.Delivered() != 0 || h.Failed() != 1 || h.Retried() != 0 {
		t.Fatalf("err=%v delivered=%d failed=%d retried=%d, want one permanent failure",
			err, h.Delivered(), h.Failed(), h.Retried())
	}
	if st := q.Stats(); st.Dropped != 64 || st.Enqueued != 0 {
		t.Fatalf("queue %v, want all 64 dropped", st)
	}
}

// failWritesFS fails the next armed writes to any WAL file, writing
// nothing.
type failWritesFS struct {
	wal.FS
	armed atomic.Int64
}

type failWritesFile struct {
	wal.File
	fs *failWritesFS
}

func (f failWritesFile) Write(p []byte) (int, error) {
	if f.fs.armed.Add(-1) >= 0 {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

func (c *failWritesFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	return failWritesFile{f, c}, err
}

func (c *failWritesFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	return failWritesFile{f, c}, err
}

// TestJournalFailureIsRetried: a journal that fails one append and then
// recovers costs the client a retry, not its beacons. The request it
// failed is answered 503, not 422, so HTTPSink retries it; the retry is
// accepted, and the WAL holds each event exactly once.
func TestJournalFailureIsRetried(t *testing.T) {
	fsys := &failWritesFS{FS: wal.OS}
	s := newIngestStack(t, wal.Options{Dir: t.TempDir(), FS: fsys}, syncChain)
	fsys.armed.Store(1)
	srv := httptest.NewServer(s.server)
	defer srv.Close()
	h := &HTTPSink{BaseURL: srv.URL, Retries: 3, Binary: true, Sleep: func(time.Duration) {}}
	events := uniqueEvents("imp", 64)
	if err := h.SubmitBatch(events); err != nil {
		t.Fatalf("SubmitBatch: %v (retried %d)", err, h.Retried())
	}
	if h.Delivered() != 1 || h.Retried() != 1 || h.Failed() != 0 {
		t.Fatalf("delivered=%d retried=%d failed=%d, want delivered on the one retry",
			h.Delivered(), h.Retried(), h.Failed())
	}
	var want []string
	for _, e := range events {
		want = append(want, string(AppendBinaryEvent(nil, e)))
	}
	got := s.walRecords(t)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the WAL holds %d records, want each of the 64 events exactly once", len(got))
	}
}

// syncCountFS counts fsyncs of WAL files (directory syncs are not
// record durability and are not counted).
type syncCountFS struct {
	wal.FS
	syncs atomic.Int64
}

type syncCountFile struct {
	wal.File
	fs *syncCountFS
}

func (f syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (c *syncCountFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	return syncCountFile{f, c}, err
}

func (c *syncCountFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	return syncCountFile{f, c}, err
}

// batchCounter counts the SubmitBatch calls that pass through it.
type batchCounter struct {
	BatchSink
	calls atomic.Int64
}

func (b *batchCounter) SubmitBatch(events []Event) error {
	b.calls.Add(1)
	return b.BatchSink.SubmitBatch(events)
}

// TestAckDurabilityFollowsThePolicy: what a 202 means is set by -fsync,
// not by how many events the POST held. A 64-event POST on the
// -durable-sync chain costs exactly one fsync under always (one per
// event before the batch path), none under batch — a request is not a
// flush — while the async queue's flush under batch still costs one.
func TestAckDurabilityFollowsThePolicy(t *testing.T) {
	body := AppendBinaryEvents(nil, batchStream(3, 64))
	single := AppendBinaryEvents(nil, batchStream(4, 1))
	for _, tc := range []struct {
		policy wal.FsyncPolicy
		group  bool
		want   int64
	}{
		{wal.FsyncAlways, true, 1},
		{wal.FsyncAlways, false, 1},
		{wal.FsyncOnBatch, true, 0},
		{wal.FsyncOnBatch, false, 0},
		{wal.FsyncInterval, true, 0}, // FsyncEvery is an hour away
	} {
		fsys := &syncCountFS{FS: wal.OS}
		s := newIngestStack(t, wal.Options{
			Dir: t.TempDir(), FS: fsys, Fsync: tc.policy, FsyncEvery: time.Hour, GroupCommit: tc.group,
		}, syncChain)
		for _, b := range [][]byte{body, single} {
			before := fsys.syncs.Load()
			if code, reply := s.post(t, b, true); code != http.StatusAccepted {
				t.Fatalf("%v: %d %v", tc.policy, code, reply)
			}
			if got := fsys.syncs.Load() - before; got != tc.want {
				t.Errorf("-fsync %v group=%v: a %d-byte POST cost %d fsyncs before its 202, want %d",
					tc.policy, tc.group, len(b), got, tc.want)
			}
		}
		if got := s.wj.Pending(); tc.want == 0 && got != 65 {
			t.Errorf("-fsync %v: %d records pending an fsync, want all 65", tc.policy, got)
		}
	}

	// The async wiring: Tee(store, queue → breaker → journal). Each queue
	// flush is one WALJournal.SubmitBatch — a batch boundary — so under
	// -fsync batch it is one fsync, as before.
	fsys := &syncCountFS{FS: wal.OS}
	store := NewStore()
	wj, _, err := OpenDurable(wal.Options{Dir: t.TempDir(), FS: fsys, Fsync: wal.FsyncOnBatch, GroupCommit: true}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	flushes := &batchCounter{BatchSink: NewCircuitBreaker(wj, 0, 0)}
	queue := NewQueueSink(flushes, QueueOptions{})
	server := NewServerWithSink(store, Tee(store, queue))
	before := fsys.syncs.Load()
	req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
	req.Header.Set("Content-Type", BinaryContentType)
	w := httptest.NewRecorder()
	server.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async POST: %d %s", w.Code, w.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queue.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got, n := fsys.syncs.Load()-before, flushes.calls.Load(); n == 0 || got != n {
		t.Errorf("async queue under -fsync batch: %d fsyncs for %d flushes, want one each", got, n)
	}
	if got := wj.Pending(); got != 0 {
		t.Errorf("async queue drained but %d records still pending an fsync", got)
	}
}
