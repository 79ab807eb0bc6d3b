package beacon

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"qtag/internal/wal"
)

// FuzzDecodeEvents hardens the HTTP ingest path: arbitrary request bodies
// must never panic, whatever decodes must survive validation or be
// rejected cleanly, and wherever the JSON decoder accepts a body,
// encoding/json accepts it too and gives DeepEqual events
// (checkJSONDecoder).
func FuzzDecodeEvents(f *testing.F) {
	f.Add(`{"impression_id":"a","campaign_id":"c","type":"served"}`)
	f.Add(`[{"impression_id":"a","campaign_id":"c","source":"qtag","type":"loaded"}]`)
	f.Add(`{"type":"bogus","seq":-1}`)
	f.Add(`[{},{},{}]`)
	f.Add(`{"impression_id":"` + strings.Repeat("x", 1000) + `"}`)
	f.Add("[{\"impression_id\":\"\\u0000\"}]")
	for _, body := range jsonDeclined {
		f.Add(body)
	}
	for _, body := range jsonAccepted {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkJSONDecoder(t, body)
		events, err := new(BatchDecoder).decodeJSON([]byte(body))
		if err != nil {
			return
		}
		store := NewStore()
		for _, e := range events {
			_ = store.Submit(e) // must not panic; invalid events error cleanly
		}
	})
}

// FuzzJournalReplay hardens journal recovery: any byte soup replays
// without panicking, and whatever is accepted round-trips.
func FuzzJournalReplay(f *testing.F) {
	valid, _ := json.Marshal(Event{ImpressionID: "a", CampaignID: "c", Type: EventServed})
	f.Add(string(valid) + "\n")
	f.Add(string(valid) + "\ngarbage\n" + string(valid))
	f.Add("\n\n\n")
	f.Add(strings.Repeat("{", 100))
	f.Add(strings.Repeat("\x00", 2<<20) + "\n" + string(valid) + "\n") // a power loss's zero-filled page
	f.Fuzz(func(t *testing.T, journal string) {
		store := NewStore()
		st, err := ReplayJournal(strings.NewReader(journal), store)
		if err != nil {
			return
		}
		if st.Replayed != store.Len() {
			// Replays can only differ when the journal contains duplicate
			// idempotency keys; re-replaying must then be a no-op.
			st2, _ := ReplayJournal(strings.NewReader(journal), store)
			if store.Len() > st.Replayed || st2.Replayed != st.Replayed {
				t.Fatalf("replay accounting inconsistent: %+v then %+v, store %d",
					st, st2, store.Len())
			}
		}
	})
}

// FuzzEventKeyUniqueness: events differing in any identity field must
// have distinct idempotency keys.
func FuzzEventKeyUniqueness(f *testing.F) {
	f.Add("a", "c", "qtag", "in-view", 0, "b", "c", "qtag", "in-view", 0)
	f.Add("a", "c", "", "served", 0, "a", "c", "", "served", 1)
	f.Fuzz(func(t *testing.T, imp1, camp1, src1, typ1 string, seq1 int,
		imp2, camp2, src2, typ2 string, seq2 int) {
		e1 := Event{ImpressionID: imp1, CampaignID: camp1, Source: Source(src1), Type: EventType(typ1), Seq: seq1}
		e2 := Event{ImpressionID: imp2, CampaignID: camp2, Source: Source(src2), Type: EventType(typ2), Seq: seq2}
		identical := imp1 == imp2 && camp1 == camp2 && src1 == src2 && typ1 == typ2 && seq1 == seq2
		sep := !strings.Contains(imp1+imp2+camp1+camp2+src1+src2+typ1+typ2, "|")
		if !identical && sep && e1.Key() == e2.Key() {
			t.Fatalf("distinct events share key %q", e1.Key())
		}
		if identical && e1.Key() != e2.Key() {
			t.Fatal("identical events with distinct keys")
		}
	})
}

// FuzzWALRecord hardens the WAL record codec under the beacon payloads
// it carries: every payload must round-trip exactly, arbitrary bytes
// must decode without panicking and only ever self-consistently, and a
// single flipped bit in a valid frame must never validate as the
// original record.
func FuzzWALRecord(f *testing.F) {
	valid, _ := json.Marshal(Event{ImpressionID: "a", CampaignID: "c", Type: EventServed})
	f.Add(valid, []byte{}, uint(0))
	f.Add([]byte(""), []byte{0, 1, 2, 3}, uint(3))
	f.Add([]byte("payload"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint(17))
	f.Add(bytes.Repeat([]byte{0}, 300), valid, uint(64))
	f.Fuzz(func(t *testing.T, payload, soup []byte, flip uint) {
		// Round-trip: encode → decode yields the payload back, even with
		// trailing bytes (the next record, or a torn tail) behind it.
		frame := wal.EncodeRecord(nil, payload)
		got, n, err := wal.DecodeRecord(append(append([]byte{}, frame...), soup...), 0)
		if err != nil || n != len(frame) || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: n=%d err=%v got %d bytes, want %d", n, err, len(got), len(payload))
		}

		// Arbitrary byte soup: decoding must not panic, and a successful
		// decode must be self-consistent — re-encoding the payload
		// reproduces the exact consumed frame.
		if sp, sn, serr := wal.DecodeRecord(soup, 0); serr == nil {
			if sn < wal.RecordHeaderSize || sn > len(soup) {
				t.Fatalf("decode consumed %d of %d bytes", sn, len(soup))
			}
			if re := wal.EncodeRecord(nil, sp); !bytes.Equal(re, soup[:sn]) {
				t.Fatalf("decoded frame does not re-encode to itself")
			}
		}

		// Single-bit corruption: CRC32C catches every 1-bit error in the
		// payload or checksum, and a length flip reframes the record — in
		// no case may the corrupted frame decode to the original payload.
		if len(frame) > 0 {
			bit := flip % uint(len(frame)*8)
			frame[bit/8] ^= 1 << (bit % 8)
			if cp, _, cerr := wal.DecodeRecord(frame, 0); cerr == nil && bytes.Equal(cp, payload) {
				t.Fatalf("bit %d flip went undetected", bit)
			}
		}
	})
}

func TestDecodeEventsLargeBatch(t *testing.T) {
	var events []Event
	for i := 0; i < 500; i++ {
		events = append(events, Event{
			ImpressionID: strings.Repeat("i", i%20+1),
			CampaignID:   "c",
			Type:         EventServed,
			Seq:          i,
		})
	}
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(BatchDecoder).decodeJSON(body)
	if err != nil || len(got) != 500 {
		t.Fatalf("decoded %d, err %v", len(got), err)
	}
	if !bytes.Equal([]byte(got[0].CampaignID), []byte("c")) {
		t.Error("content mangled")
	}
}
