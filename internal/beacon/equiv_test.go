// Equivalence property tests: the PR 4 scalability work (store sharding,
// WAL group commit) must be observationally invisible. For random event
// streams — duplicates, multiple campaigns, mixed sources — a sharded
// store at any shard count produces exactly the seed single-lock store's
// event set, and feeds its aggregator exactly the counts the seed
// store's events recompute to; and a WAL written through the group
// committer replays to state byte-identical to one written with
// per-record appends.
//
// External test package like durable_test.go: everything goes through
// the public API.
package beacon_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qtag/internal/aggregate"
	. "qtag/internal/beacon"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// seedStore is the seed repository's store collapsed to its essentials:
// one mutex, one dedup map. It is the equivalence oracle the sharded
// store is compared against.
type seedStore struct {
	mu     sync.Mutex
	events map[string]Event
}

func newSeedStore() *seedStore { return &seedStore{events: make(map[string]Event)} }

func (s *seedStore) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.events[e.Key()]; !dup {
		s.events[e.Key()] = e
	}
	return nil
}

// randomStream draws n events with deliberate collisions: few campaigns
// and impressions, every type/source combination, and enough repeats
// that dedup paths are exercised. Non-key fields (At, Meta) are derived
// from the impression index, so two stream entries with the same
// idempotency key are byte-identical — the precondition for order
// independence (with distinct payloads under one key, "which duplicate
// wins" legitimately depends on arrival order).
func randomStream(seed uint64, n int) []Event {
	rng := simrand.New(seed).Fork("equiv-stream")
	types := []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}
	sources := []Source{SourceQTag, SourceCommercial}
	oses := []string{"android", "ios", ""}
	sites := []string{"news", "video", ""}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		typ := types[rng.Intn(len(types))]
		imp := rng.Intn(n/4 + 1)
		e := Event{
			ImpressionID: fmt.Sprintf("imp-%d", imp),
			CampaignID:   fmt.Sprintf("camp-%d", imp%3),
			Type:         typ,
			At:           time.Unix(1500000000+int64(imp), 0).UTC(),
			Seq:          imp % 2,
			Meta: Meta{
				OS:       oses[imp%len(oses)],
				SiteType: sites[(imp/3)%len(sites)],
			},
		}
		if typ != EventServed {
			e.Source = sources[imp%len(sources)]
		}
		out = append(out, e)
	}
	return out
}

// counted is a sharded store with the aggregator that counts it, and a
// Recorder of what it took.
type counted struct {
	*Store
	agg *aggregate.Aggregator
	rec *Recorder
}

func newCounted(shards int) counted {
	store := NewStoreWithShards(shards)
	agg := aggregate.Attach(store, aggregate.Options{Shards: shards, TTL: -1})
	return counted{store, agg, Record(store)}
}

// reconciliation is what the stats routes and end-of-run reconciliation
// checks read: the event count and the Table 2 slices of every campaign
// and of all of them (""). Two equivalent stores must agree on every
// field.
type reconciliation struct {
	Len    int
	Slices map[string][]aggregate.Slice
}

func reconcile(events int, agg *aggregate.Aggregator) reconciliation {
	rec := reconciliation{Len: events, Slices: map[string][]aggregate.Slice{"": agg.Slices()}}
	for _, id := range agg.CampaignIDs() {
		rec.Slices[id] = agg.Slices(id)
	}
	return rec
}

func TestStoreShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {1 << 20, 1024},
	} {
		if got := NewStoreWithShards(tc.in).Shards(); got != tc.want {
			t.Errorf("NewStoreWithShards(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewStore().Shards(); got != DefaultStoreShards {
		t.Errorf("NewStore().Shards() = %d, want %d", got, DefaultStoreShards)
	}
}

// TestShardedStoreEquivalence: sequential application of a random
// stream yields identical state at every shard count, matching the seed
// single-lock oracle.
func TestShardedStoreEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2019, 0xdeadbeef} {
		stream := randomStream(seed, 600)
		oracle := newSeedStore()
		for _, e := range stream {
			oracle.Submit(e)
		}
		for _, shards := range []int{1, 2, 8, 16} {
			store := newCounted(shards)
			for _, e := range stream {
				if err := store.Submit(e); err != nil {
					t.Fatalf("seed=%d shards=%d: submit: %v", seed, shards, err)
				}
			}
			assertMatchesOracle(t, fmt.Sprintf("seed=%d shards=%d", seed, shards), store, oracle)
		}
	}
}

// TestShardedStoreConcurrentEquivalence: the same stream applied from
// many goroutines (interleaving unknown) still converges to the oracle
// state — submission order never matters to an idempotent store.
func TestShardedStoreConcurrentEquivalence(t *testing.T) {
	stream := randomStream(77, 800)
	oracle := newSeedStore()
	for _, e := range stream {
		oracle.Submit(e)
	}
	for _, shards := range []int{1, 2, 8, 16} {
		store := newCounted(shards)
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Striped assignment: every event submitted exactly once,
				// but interleaved across goroutines.
				for i := w; i < len(stream); i += workers {
					store.Submit(stream[i])
				}
				// And a second full pass from the last worker: duplicates
				// from every shard must be absorbed.
				if w == workers-1 {
					for _, e := range stream {
						store.Submit(e)
					}
				}
			}(w)
		}
		wg.Wait()
		assertMatchesOracle(t, fmt.Sprintf("concurrent shards=%d", shards), store, oracle)
	}
}

func assertMatchesOracle(t *testing.T, label string, store counted, oracle *seedStore) {
	t.Helper()
	// Identical event sets.
	if store.Len() != len(oracle.events) {
		t.Fatalf("%s: Len = %d, oracle %d", label, store.Len(), len(oracle.events))
	}
	for _, e := range store.rec.Events() {
		oe, ok := oracle.events[e.Key()]
		if !ok {
			t.Fatalf("%s: store holds %q, oracle does not", label, e.Key())
		}
		if !reflect.DeepEqual(e, oe) {
			t.Fatalf("%s: event %q differs: %+v vs %+v", label, e.Key(), e, oe)
		}
	}
	// Identical counts: what the store fed its aggregator recomputes
	// from the oracle's events.
	events := make([]Event, 0, len(oracle.events))
	for _, e := range oracle.events {
		events = append(events, e)
	}
	want := aggregate.Recompute(events, aggregate.Options{})
	if got, want := reconcile(store.Len(), store.agg), reconcile(len(events), want); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counts diverge:\n got %+v\nwant %+v", label, got, want)
	}
	if got, want := store.agg.Snapshot(), want.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report rows diverge:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestShardedStoreReconciliationEquivalence: the reconciliation surface
// (Len, and the Table 2 slices of every campaign and of all) is
// identical across shard counts.
func TestShardedStoreReconciliationEquivalence(t *testing.T) {
	stream := randomStream(4242, 700)
	var baseline *reconciliation
	for _, shards := range []int{1, 2, 8, 16} {
		store := newCounted(shards)
		for _, e := range stream {
			store.Submit(e)
		}
		rec := reconcile(store.Len(), store.agg)
		if baseline == nil {
			baseline = &rec
			continue
		}
		if !reflect.DeepEqual(rec, *baseline) {
			t.Fatalf("shards=%d: reconciliation diverges from shards=1:\n got %+v\nwant %+v", shards, rec, *baseline)
		}
	}
}

// TestGroupCommitWALEquivalence: a WAL filled by concurrent appenders
// through the group committer replays to state byte-identical to a WAL
// filled by sequential per-record appends — grouping changes syscall
// counts, never recovered state.
func TestGroupCommitWALEquivalence(t *testing.T) {
	stream := randomStream(99, 400)

	// Reference: per-record appends, seed configuration.
	refDir := t.TempDir()
	refStore := NewStore()
	refKept := Record(refStore)
	refJ, _, err := OpenDurable(wal.Options{Dir: refDir, Fsync: wal.FsyncAlways}, refStore)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		// Tee order: store first, then the journal — as the server wires it.
		if err := refStore.Submit(e); err != nil {
			t.Fatal(err)
		}
		if err := refJ.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := refJ.Close(); err != nil {
		t.Fatal(err)
	}

	// Group commit: the same events from 8 concurrent goroutines.
	gcDir := t.TempDir()
	gcStore := NewStore()
	gcKept := Record(gcStore)
	gcJ, _, err := OpenDurable(wal.Options{Dir: gcDir, Fsync: wal.FsyncAlways, GroupCommit: true}, gcStore)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				if err := gcStore.Submit(stream[i]); err != nil {
					errs <- err
					return
				}
				if err := gcJ.Submit(stream[i]); err != nil {
					errs <- err
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
	if gcJ.WAL().GroupCommits() == 0 {
		t.Fatal("group committer never committed a group")
	}
	if err := gcJ.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay both directories; the restored stores must take the same
	// events (a Recorder sorts them deterministically).
	a, b := replayedEvents(t, refDir), replayedEvents(t, gcDir)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed state differs: per-record %d events, group-commit %d events", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("reference replay restored nothing — vacuous equivalence")
	}
	// And both equal the in-memory state the stores held before the
	// restart (the Tee order guarantee).
	if !reflect.DeepEqual(a, refKept.Events()) {
		t.Fatal("per-record replay diverges from pre-restart store")
	}
	if !reflect.DeepEqual(b, gcKept.Events()) {
		t.Fatal("group-commit replay diverges from pre-restart store")
	}
}

// replayedEvents replays dir into a fresh store and returns what it took.
func replayedEvents(t *testing.T, dir string) []Event {
	t.Helper()
	store := NewStore()
	kept := Record(store)
	if _, err := ReplayWALDir(dir, store); err != nil {
		t.Fatal(err)
	}
	return kept.Events()
}

// TestGroupCommitBatchEquivalence: SubmitBatch through the group
// committer preserves the per-record WAL's replayed state too, and
// oversized records fail their own caller without poisoning the group.
func TestGroupCommitBatchEquivalence(t *testing.T) {
	stream := randomStream(7, 120)

	refDir, gcDir := t.TempDir(), t.TempDir()
	refJ, _, err := OpenDurable(wal.Options{Dir: refDir, Fsync: wal.FsyncOnBatch}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	gcJ, _, err := OpenDurable(wal.Options{
		Dir: gcDir, Fsync: wal.FsyncOnBatch, GroupCommit: true,
	}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(stream); off += 10 {
		batch := stream[off:min(off+10, len(stream))]
		if err := refJ.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := gcJ.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := refJ.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gcJ.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayedEvents(t, refDir), replayedEvents(t, gcDir)) {
		t.Fatal("batched group-commit replay diverges from per-record replay")
	}
}

// TestGroupCommitOversizedRecordIsolated: an over-limit record errors
// back to its caller before it can join (and fail) a group.
func TestGroupCommitOversizedRecordIsolated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{
		Dir: dir, MaxRecordBytes: 64, GroupCommit: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, 65)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if err := w.AppendBatch([][]byte{make([]byte, 10), make([]byte, 65)}); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Fatalf("well-sized append after oversized rejections: %v", err)
	}
	if got := w.Appended(); got != 1 {
		t.Fatalf("appended = %d, want 1 (oversized records must not land)", got)
	}
}
