// Concurrency soak: the full HTTP ingest stack — sharded store, WAL
// with group commit, fsync=always — hammered by concurrent clients, then
// reconciled three ways: accepted counters vs store contents vs a replay
// of the WAL directory. Runs in `make ci` under the race detector (the
// soak target), which is what actually proves the sharded Submit path
// and the committer handoff are data-race free.
package beacon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/report"
	"qtag/internal/wal"
)

// soakEvent is the w-th worker's i-th event; all keys distinct.
func soakEvent(w, i int) Event {
	return Event{
		ImpressionID: fmt.Sprintf("soak-w%d-i%04d", w, i),
		CampaignID:   fmt.Sprintf("camp-%d", w%3),
		Source:       SourceQTag,
		Type:         EventInView,
		At:           time.Unix(1600000000+int64(i), 0).UTC(),
	}
}

// TestIngestSoakWALGroupCommit drives goroutines × events of mixed
// single/batch POSTs through a real HTTP server with the WAL on the
// request path (fsync=always, group commit), plus a duplicate pass, and
// asserts exact accounting end to end.
func TestIngestSoakWALGroupCommit(t *testing.T) {
	const (
		workers   = 8
		perWorker = 150
	)
	dir := t.TempDir()
	store := NewStoreWithShards(16)
	wj, _, err := OpenDurable(wal.Options{
		Dir:         dir,
		Fsync:       wal.FsyncAlways,
		GroupCommit: true,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	if rec := wj.Recovery(); rec.Replayed != 0 {
		t.Fatalf("fresh dir replayed %d events", rec.Replayed)
	}
	server := NewServerWithSink(store, Tee(store, wj))
	srv := httptest.NewServer(server)
	defer srv.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(body []byte) error {
		resp, err := client.Post(srv.URL+"/v1/events", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; {
				if i%10 == 0 && i+5 <= perWorker {
					// Every tenth step: a 5-event batch.
					batch := make([]Event, 0, 5)
					for k := 0; k < 5; k++ {
						batch = append(batch, soakEvent(w, i+k))
					}
					body, _ := json.Marshal(batch)
					if err := post(body); err != nil {
						errs <- fmt.Errorf("worker %d batch at %d: %w", w, i, err)
						return
					}
					i += 5
					continue
				}
				body, _ := json.Marshal(soakEvent(w, i))
				if err := post(body); err != nil {
					errs <- fmt.Errorf("worker %d event %d: %w", w, i, err)
					return
				}
				i++
			}
			// Duplicate pass: re-send this worker's first 20 events; the
			// store and the replay must both absorb them.
			for i := 0; i < 20; i++ {
				body, _ := json.Marshal(soakEvent(w, i))
				if err := post(body); err != nil {
					errs <- fmt.Errorf("worker %d dup %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := workers * perWorker
	if got := store.Len(); got != total {
		t.Fatalf("store holds %d events, want %d", got, total)
	}
	if got := server.Accepted(); got != int64(total+workers*20) {
		t.Fatalf("accepted = %d, want %d (duplicates are accepted, then absorbed)", got, total+workers*20)
	}
	if got := server.Rejected(); got != 0 {
		t.Fatalf("rejected = %d, want 0", got)
	}
	if wj.WAL().GroupCommits() == 0 {
		t.Fatal("soak never exercised the group committer")
	}
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart reconciliation: replaying the WAL reproduces the store.
	restored := NewStore()
	rec, err := ReplayWALDir(dir, restored)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != total {
		t.Fatalf("replay restored %d events, want %d (%+v)", restored.Len(), total, rec)
	}
	if !bytes.Equal(EncodeStoreSnapshot(restored), EncodeStoreSnapshot(store)) {
		t.Fatal("replayed state diverges from the live store")
	}
}

// TestMergedReadsUnderSoak exercises the merged read paths (/healthz,
// /metrics, /report, snapshot serialization) concurrently with sharded
// writes — the reader/writer interleaving the per-shard RWMutex must
// survive under -race, with reads always observing a consistent
// (monotonic) event count.
func TestMergedReadsUnderSoak(t *testing.T) {
	store := NewStoreWithShards(8)
	agg := aggregate.Attach(store, aggregate.Options{Shards: 8})
	wj, _, err := OpenDurable(wal.Options{Dir: t.TempDir(), GroupCommit: true}, store)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerWithSink(store, Tee(store, wj))
	server.Mount("GET /report", report.Handler(agg, nil))
	wj.RegisterMetrics(server.Metrics())
	agg.RegisterMetrics(server.Metrics())
	srv := httptest.NewServer(server)
	defer srv.Close()

	const (
		writers   = 4
		perWriter = 1500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := soakEvent(w+100, i)
				if err := store.Submit(e); err != nil {
					t.Error(err)
					return
				}
				if err := wj.Submit(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	client := &http.Client{Timeout: 10 * time.Second}
	last := 0
	running := true
	for i := 0; i < 40 || running; i++ {
		select {
		case <-writersDone:
			running = false
		default:
		}
		for _, path := range []string{"/healthz", "/metrics", "/report"} {
			resp, err := client.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
		}
		if n := store.Len(); n < last {
			t.Fatalf("store shrank during soak: %d -> %d", last, n)
		} else {
			last = n
		}
		_ = EncodeStoreSnapshot(store) // snapshot serialization vs live writes
		_ = agg.Slices()
		_ = agg.CampaignIDs()
	}
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != writers*perWriter {
		t.Fatalf("store holds %d events, want %d", got, writers*perWriter)
	}
}
