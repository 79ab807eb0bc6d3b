package beacon_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/wal"
)

func benchEvent(i int64) Event {
	return Event{
		ImpressionID: fmt.Sprintf("bench-i%09d", i),
		CampaignID:   fmt.Sprintf("camp-%d", i%8),
		Source:       SourceQTag,
		Type:         EventInView,
		At:           time.Unix(1600000000, 0).UTC(),
	}
}

// BenchmarkStoreSubmit measures raw in-memory ingest contention at each
// shard count: with one shard every Submit serializes on one mutex (the
// seed behavior); sharding spreads the writers.
func BenchmarkStoreSubmit(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := NewStoreWithShards(shards)
			var seq atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := store.Submit(benchEvent(seq.Add(1))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreMixedReadWrite adds merged-read pressure (Len + Count)
// alongside the writers, the /healthz-during-ingest pattern.
func BenchmarkStoreMixedReadWrite(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := NewStoreWithShards(shards)
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if n%16 == 0 {
						_ = store.Len()
						_ = store.Count(func(k CounterKey) bool { return k.CampaignID == "camp-0" })
						continue
					}
					if err := store.Submit(benchEvent(n)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkWALAppendGroupCommit compares per-record fsync against group
// commit under concurrent appenders — the amortization the group
// committer exists for.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	payload := []byte(`{"impression_id":"bench","campaign_id":"c","source":"qtag","type":"in_view"}`)
	for _, gc := range []bool{false, true} {
		b.Run(fmt.Sprintf("group_commit=%v", gc), func(b *testing.B) {
			w, _, err := wal.Open(wal.Options{
				Dir:         b.TempDir(),
				Fsync:       wal.FsyncAlways,
				GroupCommit: gc,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := w.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchBody is a request body that can be rewound instead of rebuilt.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchResponse discards the reply without httptest's per-request buffers.
type benchResponse struct {
	header http.Header
	status int
}

func (r *benchResponse) Header() http.Header         { return r.header }
func (r *benchResponse) Write(p []byte) (int, error) { return len(p), nil }
func (r *benchResponse) WriteHeader(status int)      { r.status = status }

// BenchmarkIngestBatch64 is one 64-event binary POST through the
// -durable-sync chain — handler → StampSink → Tee(store, breaker →
// journal.RequestSink() on a temp dir, group commit on) — and its
// allocs/op is gated exactly by `make alloc-gate`: what one request
// allocates between the socket and the WAL write. The same body is
// re-posted, so every iteration is the store's duplicate path and
// exactly the per-request work — body read, decode, response, shard
// grouping, record encoding, group-commit hand-off, frame — is in the
// figure.
func BenchmarkIngestBatch64(b *testing.B) {
	body := AppendBinaryEvents(nil, benchBatch(0))
	benchIngestBatch64(b, false, func(int) []byte { return body })
}

// BenchmarkIngestBatch64FirstSeen is the same request down the same
// chain with a fresh body each time, so every event is stored: the
// figure adds what the store allocates per 64 first-seen events —
// arena chunks and index growth, amortised over the run.
func BenchmarkIngestBatch64FirstSeen(b *testing.B) {
	bodies := make([][]byte, b.N+1)
	for i := range bodies {
		bodies[i] = AppendBinaryEvents(nil, benchBatch(i))
	}
	benchIngestBatch64(b, false, func(i int) []byte { return bodies[i] })
}

// BenchmarkIngestBatch64Observed is …FirstSeen with the aggregator and
// the detector attached as collector.Open attaches them — the detector
// joined to the aggregator's pass — so every event also opens its
// impression, once for both: the figure adds what the observers allocate
// per 64 opened impressions — slab chunks and index growth, amortised;
// nothing per impression.
func BenchmarkIngestBatch64Observed(b *testing.B) {
	bodies := make([][]byte, b.N+1)
	for i := range bodies {
		bodies[i] = AppendBinaryEvents(nil, benchBatch(i))
	}
	benchIngestBatch64(b, true, func(i int) []byte { return bodies[i] })
}

// benchBatch is the nth distinct 64-event request.
func benchBatch(n int) []Event {
	events := make([]Event, 64)
	for i := range events {
		events[i] = benchEvent(int64(n*len(events) + i))
	}
	return events
}

// benchIngestBatch64 posts body(0) to warm the pools and scratch, then
// times body(1) … body(b.N).
func benchIngestBatch64(b *testing.B, observed bool, body func(i int) []byte) {
	store := NewStoreWithShards(16)
	if observed {
		agg := aggregate.New(aggregate.Options{Shards: 16})
		det := detect.New(detect.Options{Shards: 16})
		store.AddObserver(agg.Observe)
		det.Join(agg.Pass())
		store.AddDupObserver(det.ObserveDup)
	}
	wj, _, err := OpenDurable(wal.Options{Dir: b.TempDir(), GroupCommit: true}, store)
	if err != nil {
		b.Fatal(err)
	}
	defer wj.Close()
	sink := &StampSink{Next: Tee(store, NewCircuitBreaker(wj.RequestSink(), 0, 0)), Now: time.Now}
	server := NewServerWithSink(store, sink)

	rd := &benchBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/events", rd)
	req.Header.Set("Content-Type", BinaryContentType)
	resp := &benchResponse{header: http.Header{}}
	post := func(body []byte) {
		rd.Reset(body)
		req.ContentLength = int64(len(body))
		server.ServeHTTP(resp, req)
		if resp.status != http.StatusAccepted {
			b.Fatalf("status %d", resp.status)
		}
	}
	post(body(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		post(body(i))
	}
	b.StopTimer()
	if got := wj.WAL().GroupCommits(); got != int64(b.N)+1 {
		b.Fatalf("%d group commits for %d requests: the batch path was not taken", got, b.N+1)
	}
}
