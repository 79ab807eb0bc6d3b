// Equivalence property tests: the streaming detector must equal a
// batch Recompute over the raw submission log — for any arrival
// order, any interleaving across goroutines, any amount of duplicate
// delivery, and across a crash/WAL-replay boundary. Scores are
// derived purely from commutative counters at Snapshot time, so the
// property follows from the counters', and this suite pins it down.
package detect_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qtag/internal/beacon"
	. "qtag/internal/detect"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// detectStream draws n submissions with deliberate key collisions
// (duplicates), adversarial-looking metadata, and event-time
// timestamps derived from the key — so duplicate entries are
// byte-identical, the precondition for order independence.
func detectStream(seed uint64, n int) []beacon.Event {
	rng := simrand.New(seed).Fork("detect-equiv-stream")
	types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
	sources := []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}
	sizes := []string{"300x250", "1x1", "728x90", ""}
	out := make([]beacon.Event, 0, n)
	for i := 0; i < n; i++ {
		ti := rng.Intn(len(types))
		typ := types[ti]
		imp := rng.Intn(n/4 + 1)
		at := time.Unix(1700000000+int64(imp%300), int64(imp%7)*int64(time.Millisecond)*137).UTC()
		e := beacon.Event{
			ImpressionID: fmt.Sprintf("imp-%d", imp),
			CampaignID:   fmt.Sprintf("camp-%d", imp%5),
			Type:         typ,
			At:           at,
			Seq:          imp % 2,
			Meta: beacon.Meta{
				AdSize: sizes[imp%len(sizes)],
				Slot:   fmt.Sprintf("slot-%d", imp%3),
			},
		}
		if typ != beacon.EventServed {
			e.Source = sources[imp%len(sources)]
		}
		out = append(out, e)
	}
	return out
}

func equivOpts(shards int) Options {
	return Options{Shards: shards}
}

// feed pushes every submission through a fresh store + detector on
// both hooks and returns the detector.
func feed(subs []beacon.Event, opts Options) *Detector {
	det := New(opts)
	store := beacon.NewStore()
	store.AddObserver(det.Observe)
	store.AddDupObserver(det.ObserveDup)
	for _, e := range subs {
		store.Submit(e)
	}
	return det
}

// TestDetectOrderInsensitive: the same submission multiset in forward,
// reverse, and shuffled order produces DeepEqual snapshots, all equal
// to the batch oracle — the lifecycle violation cases included.
func TestDetectOrderInsensitive(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xbeef} {
		stream := append(detectStream(seed, 1500), LifecycleEvents()...)
		for _, shards := range []int{1, 4, 16} {
			opts := equivOpts(shards)
			want := Recompute(stream, opts).Snapshot()

			reversed := make([]beacon.Event, len(stream))
			for i, e := range stream {
				reversed[len(stream)-1-i] = e
			}
			shuffled := append([]beacon.Event(nil), stream...)
			rng := simrand.New(seed).Fork("shuffle")
			for i := len(shuffled) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			for label, order := range map[string][]beacon.Event{"forward": stream, "reverse": reversed, "shuffled": shuffled} {
				got := feed(order, opts).Snapshot()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d shards=%d %s: snapshot diverged\n got: %+v\nwant: %+v", seed, shards, label, got, want)
				}
			}
		}
	}
}

// TestDetectConcurrentEquivalence: the stream interleaved across
// goroutines — plus a full duplicate pass racing it — converges to
// the sequential result. The dup pass adds len(stream) duplicate
// submissions on top of the stream's own collisions, and both runs
// must agree on every dup-flood score. Run under -race this also
// proves the two-hook wiring is data-race free.
func TestDetectConcurrentEquivalence(t *testing.T) {
	stream := detectStream(77, 2000)
	sequential := append(append([]beacon.Event(nil), stream...), stream...)
	for _, shards := range []int{1, 8} {
		opts := equivOpts(shards)
		want := feed(sequential, opts).Snapshot()

		det := New(opts)
		store := beacon.NewStore()
		store.AddObserver(det.Observe)
		store.AddDupObserver(det.ObserveDup)
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
					for _, e := range stream {
						store.Submit(e)
					}
				}
			}(w)
		}
		wg.Wait()
		if got := det.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: concurrent snapshot diverged\n got: %+v\nwant: %+v", shards, got, want)
		}
	}
}

// TestDetectCrashRecovery: a detector rebuilt by WAL replay on boot
// (hooks attached before OpenDurable, exactly as qtag-server wires
// it) equals the pre-crash detector — including duplicate-flood
// state, because the WAL journals every accepted submission, not just
// first-seen ones.
func TestDetectCrashRecovery(t *testing.T) {
	stream := detectStream(0xfeed, 1200)
	// Interleave duplicates mid-stream so the flood counters have
	// state on both sides of the crash point.
	subs := make([]beacon.Event, 0, len(stream)*2)
	for i, e := range stream {
		subs = append(subs, e)
		if i%3 == 0 {
			subs = append(subs, stream[i/2])
		}
	}
	dir := t.TempDir()
	opts := equivOpts(8)

	d1 := New(opts)
	store1 := beacon.NewStore()
	store1.AddObserver(d1.Observe)
	store1.AddDupObserver(d1.ObserveDup)
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store1)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	sink := beacon.Tee(store1, wj)
	for _, e := range subs {
		if err := sink.Submit(e); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	preCrash := d1.Snapshot()
	if d1.DupEvents() == 0 {
		t.Fatal("stream produced no duplicates; the test is vacuous")
	}
	// Crash: no Close. FsyncAlways made every record durable.

	d2 := New(opts)
	store2 := beacon.NewStore()
	store2.AddObserver(d2.Observe)
	store2.AddDupObserver(d2.ObserveDup)
	wj2, rec, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store2)
	if err != nil {
		t.Fatalf("reopen durable: %v", err)
	}
	defer wj2.Close()
	if rec.Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if d2.DupEvents() != d1.DupEvents() {
		t.Fatalf("replayed dup events = %d, want %d", d2.DupEvents(), d1.DupEvents())
	}
	if got := d2.Snapshot(); !reflect.DeepEqual(got, preCrash) {
		t.Fatalf("rebuilt detector != pre-crash detector\n got: %+v\nwant: %+v", got, preCrash)
	}
}
