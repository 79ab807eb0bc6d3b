package beacon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
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

// hashedStore is a store on the real hash even under `make collide`, for
// a test that fills one shard with so many impressions that forced chains
// would make it quadratic, and that tests neither dedup nor the hash.
func hashedStore(shards int) *Store {
	defer imptable.ForceCollisions(0)()
	return NewStoreWithShards(shards)
}

// TestForcedCollisionsStayExact: with the hash out of the picture, N
// distinct keys are N events, each re-send is a duplicate, and Events
// returns all N.
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
		for _, e := range events {
			_ = reference.Submit(e)
		}
		if got, want := s.Events(), reference.Events(); len(got) != len(distinct) || !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: Events() under forced collisions differs from the hashed store (%d vs %d events)", shards, len(got), len(want))
		}
	}
}

// TestArenaOversizedRecord: a record larger than a chunk gets a chunk of
// its own, wherever it falls, and stays addressable.
func TestArenaOversizedRecord(t *testing.T) {
	at := time.Unix(1500000000, 0).UTC()
	small := func(i int) Event {
		return Event{ImpressionID: fmt.Sprintf("imp-%d", i), CampaignID: "c", Type: EventServed, At: at}
	}
	big := Event{ImpressionID: "big", CampaignID: "c", Type: EventServed, At: at,
		Meta: Meta{Slot: strings.Repeat("s", 3*arenaChunkSize)}}

	s := NewStoreWithShards(1)
	var want []Event
	for i := 0; i < 400; i++ {
		if i == 0 || i == 200 { // as a shard's first record, and mid-chunk
			e := big
			e.ImpressionID = fmt.Sprintf("big-%d", i)
			want = append(want, e)
		}
		want = append(want, small(i))
	}
	for _, e := range want {
		if err := s.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	a := &s.shards[0].arena
	own := 0
	for _, c := range a.chunks {
		if len(c) > arenaChunkSize {
			own++
		}
	}
	if own != 2 {
		t.Fatalf("%d oversized chunks, want 2", own)
	}
	if s.ArenaBytes() != a.bytes || a.bytes < 6*arenaChunkSize {
		t.Fatalf("ArenaBytes %d, arena %d", s.ArenaBytes(), a.bytes)
	}
	for _, e := range want { // every record is still found
		if err := s.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(want) {
		t.Fatalf("%d events after the re-send, want %d", s.Len(), len(want))
	}
	got := map[string]Event{}
	for _, e := range s.Events() {
		got[e.ImpressionID] = e
	}
	for _, e := range want {
		if !reflect.DeepEqual(got[e.ImpressionID], e) {
			t.Fatalf("event %s did not round-trip", e.ImpressionID)
		}
	}
}

// TestArenaFullIsAnError: a shard that holds every chunk a handle can
// address refuses first-seen events with ErrStoreFull. Nothing wraps:
// what it stored is still found, duplicates are still absorbed, and a
// refused event fires no observer.
func TestArenaFullIsAnError(t *testing.T) {
	at := time.Unix(1500000000, 0).UTC()
	event := func(i int) Event {
		return Event{ImpressionID: fmt.Sprintf("imp-%d", i), CampaignID: "c", Type: EventServed, At: at}
	}
	s := NewStoreWithShards(1)
	observed := 0
	s.AddObserver(func(Event) { observed++ })
	a := &s.shards[0].arena
	a.chunks = make([][]byte, arenaMaxChunks-1) // all but the last chunk, taken

	stored := 0
	var err error
	for ; err == nil; stored++ {
		if stored > arenaChunkSize {
			t.Fatal("the last chunk never filled")
		}
		err = s.Submit(event(stored))
	}
	stored-- // the last Submit is the refused one
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Submit into a full shard: %v, want ErrStoreFull", err)
	}
	if len(a.chunks) != arenaMaxChunks || stored == 0 {
		t.Fatalf("%d chunks, %d events stored", len(a.chunks), stored)
	}
	if s.Len() != stored || observed != stored {
		t.Fatalf("Len %d, observed %d, want %d", s.Len(), observed, stored)
	}
	// The records in the highest chunk are addressed by the highest
	// handles; they must still be found, and stay duplicates.
	for i := 0; i < stored; i++ {
		if err := s.Submit(event(i)); err != nil {
			t.Fatalf("duplicate %d in a full shard: %v", i, err)
		}
	}
	batch := []Event{event(0), event(stored + 1), event(1)}
	if err := s.SubmitBatch(batch); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("SubmitBatch into a full shard: %v, want ErrStoreFull", err)
	}
	if s.Len() != stored || observed != stored || len(s.Events()) != stored {
		t.Fatalf("after refusals: Len %d, observed %d, Events %d, want %d", s.Len(), observed, len(s.Events()), stored)
	}
}

// TestNamesCap: a shard whose table is full keeps new AdSize, Format
// and Slot strings in its records as literals — the table stops at the
// cap however many distinct slots arrive — and reads every event back
// exactly.
func TestNamesCap(t *testing.T) {
	at := time.Unix(1500000000, 0).UTC()
	s := hashedStore(1)
	want := make([]Event, 100_000)
	for i := range want {
		want[i] = Event{
			ImpressionID: fmt.Sprintf("imp-%06d", i), CampaignID: "c", Type: EventServed,
			At: at.Add(time.Duration(i) * time.Millisecond),
			// The sizes and formats are interned while slots fill the table,
			// and referred to after.
			Meta: Meta{OS: "android", AdSize: []string{"300x250", "320x50"}[i%2], Format: "display",
				Slot: fmt.Sprintf("slot-%d", i)},
		}
	}
	if err := s.SubmitBatch(want); err != nil {
		t.Fatal(err)
	}
	if n := len(s.shards[0].names.strs); n != maxInternedNames {
		t.Fatalf("the shard interned %d names, want the cap %d", n, maxInternedNames)
	}
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() differs from what was submitted once the table filled")
	}
	if err := s.SubmitBatch(want); err != nil || s.Len() != len(want) {
		t.Fatalf("re-send: %v, %d events stored, want %d", err, s.Len(), len(want))
	}
}

// FuzzStoreArena holds the properties dedup and Events rest on, for
// arbitrary events — literal type and source codes, the zero time, any
// bytes in the ids, none of which Validate need admit — with their
// strings interned, or kept as literals because they are long or the
// shard's table is at its cap. Three events go into one arena: a, an
// anchor; b, which may follow on a; and c, a later event of a's
// impression that may follow on a — or on b's anchor — unless fol gives
// it another campaign, impression or Meta, an At that no int64 of
// nanoseconds reaches, or the zero time:
//
//  1. the confirmation a closed record is found by — that an anchor is
//     of the impression with a key — agrees with equality of (campaign,
//     impression), whatever the other fields hold;
//  2. every stored event reads back as DecodeBinaryEvent of its
//     AppendBinaryEvent encoding, and neither record form is longer than
//     the bound its room was reserved by;
//  3. a follow-on shares its anchor's impression, campaign and Meta,
//     and an event that shares them, within 200 years of the anchor's
//     At, is a follow-on;
//  4. the campaign and the Meta strings are interned exactly when they
//     are short and the table is below its cap or holds them already.
func FuzzStoreArena(f *testing.F) {
	f.Add("camp-1", "imp-1", "qtag", "in-view", 0, int64(1500000000), int64(5), "imp-2", 1, uint8(0), int64(700e6), uint8(0))
	f.Add("a|b", "c", "", "served", 0, int64(0), int64(0), "a", 0, uint8(1), int64(-1), uint8(1))
	f.Add("a", "b|c", "commercial", "loaded", -3, int64(-1), int64(999999999), "b", -3, uint8(2|32), int64(0), uint8(8))
	f.Add("c", "i", "custom-src", "custom-type", 7, int64(1<<40), int64(1), "qtag", 7, uint8(4|64), int64(1), uint8(2|64))
	f.Add("c", "i", "qtag", "out-of-view", 2, int64(1), int64(1), "served", 3, uint8(8|16|128), int64(math.MaxInt64), uint8(4))
	f.Add("", "", "", "", 0, int64(0), int64(0), "", 0, uint8(31), int64(0), uint8(32))
	f.Add("c", "i", "qtag", "loaded", 0, int64(1), int64(1), "c", 0, uint8(64|128), int64(math.MinInt64), uint8(16|32))
	f.Add("c", "i", "qtag", "in-view", 1, int64(5), int64(0), "", 2, uint8(32), int64(0), uint8(8|32))
	f.Add("", "i", "qtag", "", 0, int64(1546300800), int64(0), "", 0, uint8(4|16), int64(3e9), uint8(32))
	f.Add("camp-1", "imp-1", "qtag", "in-view", 0, int64(1500000000), int64(5), "imp-2", 1, uint8(0), int64(2e9), uint8(16))
	// a's AdSize is a literal (the table is full), and so is b's
	// Country, the same string: c still follows on a.
	f.Add("0", "0", "0", "0", -3, int64(-1), int64(1000000021), "1", -3, uint8(16|32|64), int64(-2), uint8(8))
	f.Fuzz(func(t *testing.T, camp, imp, src, typ string, seq int, sec, nsec int64, alt string, altSeq int, mut uint8, delta int64, fol uint8) {
		a := Event{
			CampaignID: camp, ImpressionID: imp, Source: Source(src), Type: EventType(typ), Seq: seq,
			At:    time.Unix(sec, nsec%1_000_000_000),
			Trace: alt, Meta: Meta{OS: camp, Slot: imp, Format: typ, AdSize: alt},
		}
		if mut&32 != 0 {
			a.At = time.Time{}
		}
		b := Event{CampaignID: camp, ImpressionID: imp, Source: Source(src), Type: EventType(typ), Seq: seq,
			At: time.Unix(nsec, 0), Meta: Meta{Country: alt, Slot: alt, AdSize: typ}}
		if mut&128 != 0 { // past the length names are interned up to
			a.Meta.Slot = strings.Repeat(imp+"#", maxInternedLen)
			b.Meta.Format = strings.Repeat(alt+"#", maxInternedLen)
		}
		if mut&1 != 0 {
			b.CampaignID = alt
		}
		if mut&2 != 0 {
			b.ImpressionID = alt
		}
		if mut&4 != 0 {
			b.Source = Source(alt)
		}
		if mut&8 != 0 {
			b.Type = EventType(alt)
		}
		if mut&16 != 0 {
			b.Seq = altSeq
		}
		c := a
		c.Seq, c.Trace, c.At = altSeq, camp, a.At.Add(time.Duration(delta))
		if fol&1 != 0 {
			c.CampaignID = alt + "!"
		}
		if fol&2 != 0 {
			c.Meta.Exchange = "x" + alt
		}
		if fol&4 != 0 { // farther than an int64 of nanoseconds
			c.At = a.At.AddDate(300, 0, 0)
		}
		if fol&8 != 0 {
			c.At = time.Time{}
		}
		if fol&16 != 0 { // offered another impression's anchor
			c.ImpressionID = imp + "!"
		}
		if fol&64 != 0 {
			c.Type, c.Source = EventType(alt), Source(typ)
		}
		events := []Event{a, b, c}

		full := mut&64 != 0
		n := names{ids: map[string]uint32{}}
		if full { // ids 1…cap are taken, by strings no event holds
			n.strs = make([]string, maxInternedNames)
		}
		var ar arena
		var ids [3]eventNames
		var h [3]uint32
		var anchorOf [3]int // the event whose record is each event's anchor
		for i := range events {
			e := &events[i]
			// What a full table still refers to: what it held before the
			// event.
			fields := []string{e.CampaignID, e.Meta.OS, e.Meta.SiteType, e.Meta.Exchange, e.Meta.Country,
				e.Meta.AdSize, e.Meta.Format, e.Meta.Slot}
			known := map[string]bool{}
			for _, s := range fields {
				if _, ok := n.ids[s]; ok {
					known[s] = true
				}
			}
			ids[i] = n.intern(e)
			for j, id := range []uint32{ids[i].campaign, ids[i].os, ids[i].siteType, ids[i].exchange, ids[i].country,
				ids[i].adSize, ids[i].format, ids[i].slot} {
				f := struct {
					id uint32
					s  string
				}{id, fields[j]}
				interned := f.s != "" && len(f.s) <= maxInternedLen && (!full || known[f.s])
				if (f.id != 0) != interned || f.id != 0 && n.str(f.id) != f.s {
					t.Fatalf("event %d: %q numbered %d (table full: %v)", i, f.s, f.id, full)
				}
			}
			// Each event is offered a's anchor, as a later event of an
			// impression is its newest; c, under fol&32, b's instead.
			near := noRecord
			if i > 0 {
				near = h[anchorOf[0]]
				if i == 2 && fol&32 != 0 {
					near = h[anchorOf[1]]
				}
			}
			anchorOf[i] = i
			var anchored bool
			var err error
			if h[i], anchored, err = ar.append(near, e, &ids[i]); err != nil {
				t.Fatal(err)
			}
			if !anchored {
				anchorOf[i] = anchorOf[0]
				if i == 2 && fol&32 != 0 {
					anchorOf[i] = anchorOf[1]
				}
			}
		}

		// 3: which form each record took.
		for i := 1; i < 3; i++ {
			near := 0
			if i == 2 && fol&32 != 0 {
				near = anchorOf[1]
			}
			e, anc := &events[i], &events[near]
			shared := e.ImpressionID == anc.ImpressionID && e.CampaignID == anc.CampaignID && e.Meta == anc.Meta
			const span = 200 * 365 * 24 * time.Hour
			d := e.At.Sub(anc.At)
			r := ar.event(h[i])
			follows := r[0] == followOnTag
			if follows && (!shared || binary.LittleEndian.Uint32(r[1:]) != h[near]) || !follows && shared && d > -span && d < span {
				t.Fatalf("event %d is a follow-on: %v; shares anchor %d's impression, campaign and Meta: %v (At %v apart)",
					i, follows, near, shared, d)
			}
		}

		// 1.
		sh := storeShard{arena: ar, names: n}
		for i := range events {
			for j := range events {
				x, y := &events[anchorOf[i]], &events[j]
				same := x.CampaignID == y.CampaignID && x.ImpressionID == y.ImpressionID
				if sh.sameImpression(h[anchorOf[i]], y.AppendImpressionKey(nil)) != same {
					t.Fatalf("record %d's anchor is event %d's impression: %v; the fields say %v:\n %+v\n %+v", i, j, !same, same, *x, *y)
				}
			}
		}

		// 2.
		got := ar.events(nil, &n)
		if len(got) != 3 || ar.records != 3 {
			t.Fatalf("%d events read back, %d counted, want 3", len(got), ar.records)
		}
		for i, e := range events {
			enc := AppendBinaryEvent(nil, e)
			bound := maxBinaryEventLen(&e)
			if len(enc) > bound {
				t.Fatalf("event %d encodes to %d bytes, over its bound %d", i, len(enc), bound)
			}
			if rec := appendRecord(nil, &e, &ids[i]); len(rec) > bound {
				t.Fatalf("event %d's anchor is %d bytes, over its bound %d", i, len(rec), bound)
			}
			if rec := appendFollowOn(nil, noRecord, math.MinInt64, &e); len(rec) > bound {
				t.Fatalf("event %d's follow-on is %d bytes, over its bound %d", i, len(rec), bound)
			}
			want, err := DecodeBinaryEvent(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("event %d read back as %+v, want %+v", i, got[i], want)
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
