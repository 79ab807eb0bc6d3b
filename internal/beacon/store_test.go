package beacon

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qtag/internal/imptable"
)

// collidingStore is a store whose impression tables hash every key to
// one value, so every impression of a shard — open or closed — shares one
// chain and only the key comparison tells them apart.
func collidingStore(shards int) *Store {
	defer imptable.ForceCollisions(1)()
	return NewStoreWithShards(shards)
}

// TestForcedCollisionsStayExact: with the hash out of the picture, N
// distinct keys are N events, each re-send is a duplicate, and a
// Recorder returns all N.
func TestForcedCollisionsStayExact(t *testing.T) {
	at := time.Unix(1500000000, 0).UTC()
	var events []Event
	for i := 0; i < 300; i++ {
		e := Event{
			ImpressionID: fmt.Sprintf("imp-%d", i/6),
			CampaignID:   fmt.Sprintf("camp-%d", i%3),
			Type:         []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}[i%4],
			Seq:          i % 2,
			At:           at.Add(time.Duration(i) * time.Millisecond),
			Meta:         Meta{OS: "android", Format: "display"},
		}
		if e.Type != EventServed {
			e.Source = []Source{SourceQTag, SourceCommercial, "verifier|3"}[i%3]
		}
		events = append(events, e)
	}
	distinct := map[[5]string]bool{}
	for _, e := range events {
		distinct[[5]string{e.CampaignID, e.ImpressionID, string(e.Source), string(e.Type), fmt.Sprint(e.Seq)}] = true
	}

	for _, shards := range []int{1, 4} {
		s := collidingStore(shards)
		rec := Record(s)
		var first, dups int
		s.AddObserver(func(Event) { first++ })
		s.AddDupObserver(func(Event) { dups++ })
		for _, e := range events {
			if err := s.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SubmitBatch(events); err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(distinct) || first != len(distinct) {
			t.Fatalf("shards=%d: %d events stored, %d observed, want %d distinct keys", shards, s.Len(), first, len(distinct))
		}
		if want := 2*len(events) - len(distinct); dups != want {
			t.Fatalf("shards=%d: %d duplicates absorbed, want %d", shards, dups, want)
		}
		for i := range s.shards {
			if n := s.shards[i].imps.Chains(); n > 1 {
				t.Fatalf("shards=%d: shard %d has %d index entries; the hash was not forced", shards, i, n)
			}
		}
		reference := NewStoreWithShards(shards)
		referenceRec := Record(reference)
		for _, e := range events {
			_ = reference.Submit(e)
		}
		if got, want := rec.Events(), referenceRec.Events(); len(got) != len(distinct) || !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: Events() under forced collisions differs from the hashed store (%d vs %d events)", shards, len(got), len(want))
		}
	}
}

// FuzzStoreArena holds what dedup and the Recorder rest on, for
// arbitrary campaign, impression and solution strings — with keys past
// InlineKey, which go to key blocks, on forced collision chains — across
// closes and reopens: a store takes an event exactly when no event with
// its idempotency key came before it, whether the impression is open or
// closed; a closed impression keeps one closed record, which a new
// beacon reopens; and the Recorder reads back each event taken as
// DecodeBinaryEvent of its AppendBinaryEvent encoding.
func FuzzStoreArena(f *testing.F) {
	f.Add("camp-1", "imp-1", "qtag", "imp-2", 0, 1, int64(1500000000), int64(5), int64(1))
	f.Add("a|b", "c", "", "a", 0, 0, int64(0), int64(0), int64(2))
	f.Add("a", "b|c", "commercial", "b", -3, 7, int64(-1), int64(999999999), int64(3))
	f.Add("c", "i", "custom-src", "qtag", 7, 9, int64(1<<40), int64(1), int64(4))
	f.Add("", "", "", "", 0, 0, int64(0), int64(0), int64(5))
	f.Add("c", strings.Repeat("i", 40), "qtag", strings.Repeat("i", 39), 0, 200, int64(1546300800), int64(0), int64(6))
	f.Add("camp-1", "imp-1", "commercial", "camp-1", 1, 1, int64(1500000000), int64(0), int64(7))
	f.Add(strings.Repeat("c", 30), "i", "qtag", "j", 0, 8, int64(5), int64(7), int64(8))
	f.Add("c", "i", "qtag", "i", -1, 2, int64(0), int64(1), int64(9))
	f.Add("c|", "|i", "q|", "|", 0, 1, int64(1), int64(2), int64(10))
	f.Add("0", "0", "0", "0", 3, 3, int64(-1), int64(1000000021), int64(11))
	f.Fuzz(func(t *testing.T, camp, imp, src, alt string, seq, altSeq int, sec, nsec, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pick := func(s ...string) string { return s[rng.Intn(len(s))] }
		long := strings.Repeat(imp+"#", 1+imptable.InlineKey/(len(imp)+1)) // past InlineKey
		types := []EventType{EventServed, EventLoaded, EventInView, EventOutOfView}
		var events []Event
		for i := 0; i < 24; i++ {
			e := Event{
				CampaignID: pick(camp, alt), ImpressionID: pick(imp, alt, long), Type: types[rng.Intn(4)],
				Seq:  []int{0, 1, seq, altSeq}[rng.Intn(4)],
				At:   time.Unix(sec, nsec%1_000_000_000).Add(time.Duration(i) * time.Millisecond),
				Meta: Meta{OS: pick("", camp), Slot: pick("", alt)}, Trace: pick("", src),
			}
			if e.Type != EventServed {
				e.Source = Source(pick(src, alt, "qtag"))
			}
			events = append(events, e)
		}
		type key [5]string
		keyOf := func(e Event) key {
			return key{e.CampaignID, e.ImpressionID, string(e.Source), string(e.Type), strconv.Itoa(e.Seq)}
		}
		s := collidingStore(2)
		rec := Record(s)
		firsts := 0
		s.AddObserver(func(Event) { firsts++ })
		want := map[key]Event{}
		impressions := map[string]bool{}
		closeAll := func() {
			s.Impressions(func(t *imptable.Table) {
				for t.EvictOldest(nil) {
				}
			})
		}
		for round, batch := range [][]Event{events[:12], events, events} {
			for _, e := range batch {
				before := firsts
				if err := s.Submit(e); err != nil {
					continue // Validate refused it: no impression, no key
				}
				_, dup := want[keyOf(e)]
				if taken := firsts > before; taken == dup {
					t.Fatalf("round %d: %+v taken: %v, a duplicate of an earlier event: %v", round, e, taken, dup)
				}
				if !dup {
					kept, err := DecodeBinaryEvent(AppendBinaryEvent(nil, e))
					if err != nil {
						t.Fatal(err)
					}
					want[keyOf(e)] = kept
					impressions[string(e.AppendImpressionKey(nil))] = true
				}
			}
			closeAll()
			closed := 0
			s.Impressions(func(t *imptable.Table) { closed += t.Closed() + t.Len() })
			if closed != len(impressions) {
				t.Fatalf("round %d: %d closed records, want one for each of %d impressions", round, closed, len(impressions))
			}
		}
		got := rec.Events()
		if s.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("Len %d, %d recorded, want %d distinct keys", s.Len(), len(got), len(want))
		}
		for _, e := range got {
			if w, ok := want[keyOf(e)]; !ok || !reflect.DeepEqual(e, w) {
				t.Fatalf("recorded %+v, want %+v", e, w)
			}
		}
	})
}

// TestLongImpressionLinear: one impression carrying 100 000 distinct Seq
// values costs no more per event than one carrying 1 000, first seen or
// re-sent, counted in what the lookups compare: the impression's record,
// and the spilled seen set past the seqs it holds as bits — one of each,
// however many seqs came before. A lookup that walked the impression's
// earlier beacons would be quadratic in the impression.
func TestLongImpressionLinear(t *testing.T) {
	visitsPerEvent := func(n int) float64 {
		s := NewStoreWithShards(1)
		e := Event{ImpressionID: "imp-long", CampaignID: "c", Source: SourceQTag, Type: EventInView,
			At: time.Unix(1500000000, 0).UTC(), Meta: Meta{OS: "android", Slot: "slot-1"}}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				e.Seq = i
				if err := s.Submit(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s.Len() != n {
			t.Fatalf("%d events stored, want %d", s.Len(), n)
		}
		return float64(s.shards[0].imps.Visits()) / float64(2*n)
	}
	small, large := visitsPerEvent(1_000), visitsPerEvent(100_000)
	t.Logf("one impression: %.3f records visited per event at 1 000 Seq values, %.3f at 100 000", small, large)
	if large > 2 || large > small+0.01 {
		t.Fatalf("100 000 Seq values visit %.3f records per event, 1 000 visit %.3f: want at most 2, and no more than at 1 000", large, small)
	}
}
