package beacon

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"qtag/internal/obs"
	"qtag/internal/wal"
)

// codecSampleEvents covers every encoding branch: coded and literal
// types/sources, zero and non-zero timestamps, empty and populated
// Meta, negative Seq, multi-byte UTF-8, and an event long enough to
// force the batch encoder's widen-in-place length prefix.
func codecSampleEvents() []Event {
	return []Event{
		{
			ImpressionID: "imp-1", CampaignID: "camp-1", Type: EventServed,
			At: time.Unix(1500000000, 123456789).UTC(),
			Meta: Meta{OS: "android", SiteType: "news", AdSize: "300x250",
				Format: "banner", Country: "fr", Exchange: "appnexus", Slot: "atf-1"},
		},
		{
			ImpressionID: "imp-2", CampaignID: "camp-2", Type: EventInView,
			Source: SourceQTag, Seq: 3, At: time.Unix(1500000001, 0).UTC(),
			Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		},
		{
			ImpressionID: "imp-3", CampaignID: "camp-3", Type: EventLoaded,
			Source: SourceCommercial, At: time.Unix(1500000002, 999999999).UTC(),
		},
		// Zero time, negative seq, literal (unknown) type and source:
		// the codec must round-trip whatever JSON can carry, valid or not.
		{
			ImpressionID: "imp-4", CampaignID: "camp-4",
			Type: EventType("custom-type"), Source: Source("custom-src"), Seq: -7,
		},
		// Multi-byte UTF-8 and an encoding well past 127 bytes, so the
		// reserved 1-byte batch length prefix must widen in place.
		{
			ImpressionID: strings.Repeat("長い印象-", 20), CampaignID: "캠페인-üñï",
			Type: EventOutOfView, Source: SourceQTag,
			At:   time.Unix(-62135596800, 1).UTC(), // year 1: negative unix seconds
			Meta: Meta{OS: strings.Repeat("x", 150), Slot: "слот"},
		},
	}
}

// eventsEqual compares events semantically: At by instant (the codec
// normalizes to UTC), everything else exactly.
func eventsEqual(a, b Event) bool {
	if !a.At.Equal(b.At) {
		return false
	}
	a.At, b.At = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

func TestBinaryEventRoundTrip(t *testing.T) {
	for i, e := range codecSampleEvents() {
		enc := AppendBinaryEvent(nil, e)
		got, err := DecodeBinaryEvent(enc)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		if !eventsEqual(e, got) {
			t.Fatalf("event %d round trip:\n in: %+v\nout: %+v", i, e, got)
		}
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	events := codecSampleEvents()
	frame := AppendBinaryEvents(nil, events)

	copied, err := DecodeBinaryEvents(frame)
	if err != nil {
		t.Fatalf("copying decode: %v", err)
	}
	var dec BatchDecoder
	aliased, err := dec.Decode(frame)
	if err != nil {
		t.Fatalf("alias decode: %v", err)
	}
	if len(copied) != len(events) || len(aliased) != len(events) {
		t.Fatalf("decoded %d / %d events, want %d", len(copied), len(aliased), len(events))
	}
	for i := range events {
		if !eventsEqual(events[i], copied[i]) {
			t.Errorf("copying decode event %d:\n in: %+v\nout: %+v", i, events[i], copied[i])
		}
		if !eventsEqual(events[i], aliased[i]) {
			t.Errorf("alias decode event %d:\n in: %+v\nout: %+v", i, events[i], aliased[i])
		}
	}

	// An empty batch is a valid frame.
	empty, err := DecodeBinaryEvents(AppendBinaryEvents(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d events", err, len(empty))
	}
}

// The deadline is ephemeral by design (json:"-"): the codec must drop
// it, exactly like the JSON path does on WAL records and forwards.
func TestBinaryCodecDropsDeadline(t *testing.T) {
	e := codecSampleEvents()[1]
	e.Deadline = time.Now().Add(time.Second)
	got, err := DecodeBinaryEvent(AppendBinaryEvent(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deadline.IsZero() {
		t.Fatalf("deadline survived the wire: %v", got.Deadline)
	}
}

// A BatchDecoder is reused across requests from a pool; a later, smaller
// batch must not see (or keep alive) the previous batch's strings.
func TestBatchDecoderReuse(t *testing.T) {
	var dec BatchDecoder
	big := AppendBinaryEvents(nil, codecSampleEvents())
	if _, err := dec.Decode(big); err != nil {
		t.Fatal(err)
	}
	small := AppendBinaryEvents(nil, []Event{{
		ImpressionID: "solo", CampaignID: "c", Type: EventServed,
		At: time.Unix(1500000000, 0).UTC(),
	}})
	got, err := dec.Decode(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ImpressionID != "solo" || got[0].Meta.OS != "" {
		t.Fatalf("reused decoder leaked previous batch: %+v", got)
	}
	// The scratch beyond the live slice must be cleared, or the big
	// batch's arena stays pinned for the decoder's pool lifetime.
	scratch := got[:cap(got)]
	for i := 1; i < len(scratch); i++ {
		if scratch[i].ImpressionID != "" {
			t.Fatalf("scratch slot %d still pins old strings: %+v", i, scratch[i])
		}
	}
}

// bodyCollected posts a one-event binary frame whose trace is larger
// than the body pool keeps, to a server set up by setup, and reports
// whether the buffer the server read the body into is garbage at the
// first collection after the request is answered. Such a buffer does not
// go back to the pool, so only something else can keep it.
func bodyCollected(t *testing.T, setup func(*Server)) bool {
	t.Helper()
	const imp = "imp-pinned"
	frame := AppendBinaryEvents(nil, []Event{{ImpressionID: imp, CampaignID: "c", Type: EventServed,
		At: time.Unix(1500000000, 0).UTC(), Trace: strings.Repeat("t", maxPooledBody)}})
	at := bytes.Index(frame, []byte(imp))
	collected := make(chan struct{})
	srv := NewServerWithSink(NewStore(), SinkFunc(func(e Event) error {
		// e.ImpressionID aliases the body the server read the request
		// into; the body starts at bytes.Index's offset before it.
		body := (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(e.ImpressionID)), -at))
		runtime.SetFinalizer(body, func(*byte) { close(collected) })
		return nil
	}))
	setup(srv)
	req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryContentType)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", rr.Code, rr.Body.String())
	}
	runtime.GC()
	defer runtime.KeepAlive(srv)
	select {
	case <-collected:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// TestPooledDecoderKeepsNoBody: once a binary request is answered, its
// body is the pool's or garbage. The decoder goes back to its pool, where
// it can wait out a collection in the victim cache; with the events of
// its last request still in its scratch, a body too large for the pool
// would outlive the request there.
func TestPooledDecoderKeepsNoBody(t *testing.T) {
	if !bodyCollected(t, func(*Server) {}) {
		t.Fatal("the request body is still reachable after a collection: a pooled decoder pins it")
	}
}

// TestSampledSpanKeepsNoBody: a sampled ingest span, kept in the span
// store long after its request, names the request's first campaign. That
// attribute must be a copy: aliasing the body, it would keep up to
// -max-body-bytes alive per retained span, and read a later request's
// bytes once the body's buffer is reused.
func TestSampledSpanKeepsNoBody(t *testing.T) {
	spans := obs.NewSpanStore(16)
	if !bodyCollected(t, func(s *Server) { s.SetTracer(newTestTracer(spans, 1)) }) {
		t.Fatal("the request body is still reachable after a collection: the sampled span pins it")
	}
	if got := spans.Snapshot(); len(got) != 1 || got[0].Attr("campaign") != "c" {
		t.Fatalf("spans %+v, want one naming campaign c", got)
	}
}

func TestBinaryDecodeTruncation(t *testing.T) {
	// Every strict prefix of a valid encoding must error, never panic or
	// return a bogus event.
	enc := AppendBinaryEvent(nil, codecSampleEvents()[0])
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBinaryEvent(enc[:i]); err == nil {
			t.Fatalf("truncated event at %d/%d decoded", i, len(enc))
		}
	}
	frame := AppendBinaryEvents(nil, codecSampleEvents()[:2])
	for i := 0; i < len(frame); i++ {
		if _, err := DecodeBinaryEvents(frame[:i]); err == nil {
			t.Fatalf("truncated batch at %d/%d decoded", i, len(frame))
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	valid := AppendBinaryEvent(nil, codecSampleEvents()[0])
	frame := AppendBinaryEvents(nil, codecSampleEvents()[:1])

	// Unknown event version / batch magic → ErrBinaryVersion (the 415
	// signal); corruption inside a spoken version → plain error (400).
	badVer := append([]byte{}, valid...)
	badVer[0] = 0x02
	if _, err := DecodeBinaryEvent(badVer); !errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("future event version: %v", err)
	}
	badMagic := append([]byte{}, frame...)
	badMagic[0] = 0xF2
	if _, err := DecodeBinaryEvents(badMagic); !errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("bad batch magic: %v", err)
	}
	badFrameVer := append([]byte{}, frame...)
	badFrameVer[1] = 0x02
	if _, err := DecodeBinaryEvents(badFrameVer); !errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("future batch version: %v", err)
	}

	// Unknown type / source codes are corruption, not versions.
	badType := append([]byte{}, valid...)
	badType[2] = 9
	if _, err := DecodeBinaryEvent(badType); err == nil || errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("unknown type code: %v", err)
	}
	badSrc := append([]byte{}, valid...)
	badSrc[3] = 9
	if _, err := DecodeBinaryEvent(badSrc); err == nil || errors.Is(err, ErrBinaryVersion) {
		t.Fatalf("unknown source code: %v", err)
	}

	// Nanoseconds past 1s would silently shift the instant.
	nsOverflow := []byte{binaryEventVersion, 0, 1, 0}
	nsOverflow = append(nsOverflow, 0)                            // sec = 0
	nsOverflow = append(nsOverflow, 0x80, 0x94, 0xEB, 0xDC, 0x04) // nsec = 1_300_000_000
	if _, err := DecodeBinaryEvent(nsOverflow); err == nil {
		t.Fatal("nsec overflow decoded")
	}

	// Trailing bytes after a complete event or frame are corruption.
	if _, err := DecodeBinaryEvent(append(append([]byte{}, valid...), 0)); err == nil {
		t.Fatal("trailing bytes after event decoded")
	}
	if _, err := DecodeBinaryEvents(append(append([]byte{}, frame...), 0)); err == nil {
		t.Fatal("trailing bytes after batch decoded")
	}

	// A forged count must not drive a huge preallocation: frame header
	// claiming 2^40 events in 3 bytes.
	forged := []byte{binaryBatchMagic, binaryEventVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 2, 3}
	if _, err := DecodeBinaryEvents(forged); err == nil {
		t.Fatal("forged count decoded")
	}
}

// DecodeStoredEvent dispatches on the payload's first byte, so one WAL
// (or hint backlog) can hold JSON records written before the binary
// codec next to binary records written after.
func TestDecodeStoredEventDispatch(t *testing.T) {
	e := codecSampleEvents()[1]
	fromBinary, err := DecodeStoredEvent(AppendBinaryEvent(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	jsonPayload, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeStoredEvent(jsonPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(fromBinary, fromJSON) || !eventsEqual(e, fromBinary) {
		t.Fatalf("dispatch mismatch:\nbinary: %+v\n  json: %+v", fromBinary, fromJSON)
	}
	if _, err := DecodeStoredEvent(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := DecodeStoredEvent([]byte("not a payload")); err == nil {
		t.Fatal("garbage payload decoded")
	}
}

// A WAL directory written entirely by a pre-binary process (JSON
// payloads) must replay identically through the upgraded journal.
func TestJSONWALReplaysThroughBinaryJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, _, err := wal.Open(wal.Options{Dir: dir}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Only validation-clean events: replay submits to the store, and the
	// codec samples deliberately include an invalid literal-typed event.
	var events []Event
	for _, e := range codecSampleEvents() {
		if e.Validate() == nil {
			events = append(events, e)
		}
	}
	if len(events) < 3 {
		t.Fatalf("only %d valid sample events", len(events))
	}
	for _, e := range events {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	store := NewStore()
	j, rec, err := OpenDurable(wal.Options{Dir: dir}, store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != len(events) || rec.ReplaySkipped != 0 {
		t.Fatalf("JSON WAL replay: %+v", rec)
	}
	// The upgraded journal appends binary records to the same directory;
	// a restart then replays the mixed JSON+binary log in full.
	extra := Event{ImpressionID: "post-upgrade", CampaignID: "camp-1",
		Type: EventServed, At: time.Unix(1500000100, 0).UTC()}
	if err := j.Submit(extra); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := NewStore()
	rec2, err := ReplayWALDir(dir, store2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Replayed != len(events)+1 || rec2.ReplaySkipped != 0 {
		t.Fatalf("mixed WAL replay: %+v", rec2)
	}
	if store2.Len() != store.Len()+1 {
		t.Fatalf("store after mixed replay: %d events, want %d", store2.Len(), store.Len()+1)
	}
}

type binaryVector struct {
	Name  string `json:"name"`
	Hex   string `json:"hex"`
	Event Event  `json:"event"`
}

// The golden vectors pin the wire format byte for byte: an encoder
// change that alters any hex string is a wire-format break, which needs
// a new version byte, not a silent re-baseline.
func TestBinaryGoldenVectors(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "binary_vectors.json"))
	if err != nil {
		t.Fatal(err)
	}
	var vectors []binaryVector
	if err := json.Unmarshal(raw, &vectors); err != nil {
		t.Fatal(err)
	}
	if len(vectors) < 4 {
		t.Fatalf("only %d golden vectors", len(vectors))
	}
	for _, v := range vectors {
		t.Run(v.Name, func(t *testing.T) {
			want, err := hex.DecodeString(v.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendBinaryEvent(nil, v.Event); !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from the golden vector:\n got %x\nwant %x", got, want)
			}
			decoded, err := DecodeBinaryEvent(want)
			if err != nil {
				t.Fatal(err)
			}
			if !eventsEqual(v.Event, decoded) {
				t.Fatalf("golden bytes decode:\n got %+v\nwant %+v", decoded, v.Event)
			}
		})
	}
}

// The server negotiates the codec on Content-Type: a binary POST lands
// through the zero-allocation decoder, and the JSON path is untouched.
func TestServerBinaryIngest(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()

	events := []Event{
		{ImpressionID: "b-1", CampaignID: "c", Type: EventServed, At: time.Unix(1500000000, 0).UTC()},
		{ImpressionID: "b-1", CampaignID: "c", Type: EventInView, Source: SourceQTag, At: time.Unix(1500000001, 0).UTC()},
	}
	resp, err := http.Post(srv.URL+"/v1/events", BinaryContentType,
		bytes.NewReader(AppendBinaryEvents(nil, events)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary POST: %d", resp.StatusCode)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d events, want 2", store.Len())
	}

	// A future frame version is 415 — the fall-back-to-JSON signal —
	// while corruption within this version is a plain 400.
	future := AppendBinaryEvents(nil, events[:1])
	future[1] = 0x7F
	resp, err = http.Post(srv.URL+"/v1/events", BinaryContentType, bytes.NewReader(future))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("future-version POST: %d, want 415", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/events", BinaryContentType, bytes.NewReader([]byte{binaryBatchMagic, binaryEventVersion, 5, 1}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt-frame POST: %d, want 400", resp.StatusCode)
	}
}

// TestServerBinaryContentType: the binary codec is chosen by the media
// type of Content-Type, compared case-insensitively with its parameters
// set aside (RFC 9110 §8.3.1) — not by a raw, case-sensitive prefix,
// which sent a binary body in other letter cases to the JSON decoder
// (400) and a JSON body under a longer media type to the binary one.
func TestServerBinaryContentType(t *testing.T) {
	binary := AppendBinaryEvents(nil, []Event{{ImpressionID: "ct", CampaignID: "c", Type: EventServed,
		At: time.Unix(1500000000, 0).UTC()}})
	jsonBody := []byte(`{"impression_id":"ct","campaign_id":"c","type":"served"}`)
	for _, c := range []struct {
		contentType string
		body        []byte
	}{
		{"application/x-qtag-binary", binary},
		{"Application/X-Qtag-Binary", binary},
		{"APPLICATION/X-QTAG-BINARY", binary},
		{"application/x-qtag-binary; v=1", binary},
		{"Application/X-Qtag-Binary ; v=1", binary},
		{" application/x-qtag-binary;v=1", binary},
		{"application/x-qtag-binary-v2", jsonBody},
		{"application/x-qtag-binaryx; v=1", jsonBody},
		{"application/json; charset=utf-8", jsonBody},
		{"", jsonBody},
	} {
		store := NewStore()
		req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rr := httptest.NewRecorder()
		NewServer(store).ServeHTTP(rr, req)
		if rr.Code != http.StatusAccepted || store.Len() != 1 {
			t.Errorf("Content-Type %q: %d %s, %d events stored", c.contentType, rr.Code, rr.Body.String(), store.Len())
		}
	}
}

// HTTPSink in binary mode delivers binary to a binary-speaking server.
func TestHTTPSinkBinary(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()

	sink := &HTTPSink{BaseURL: srv.URL, Binary: true}
	err := sink.SubmitBatch([]Event{
		{ImpressionID: "hb-1", CampaignID: "c", Type: EventServed, At: time.Unix(1500000000, 0).UTC()},
		{ImpressionID: "hb-2", CampaignID: "c", Type: EventServed, At: time.Unix(1500000000, 0).UTC()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 || sink.Failed() != 0 {
		t.Fatalf("store holds %d events (%d failed), want 2 (0)", store.Len(), sink.Failed())
	}
}

// A 400 or 415 answer to a binary request — this server's answer to a
// corrupt frame, a bad budget header or a future codec version — is a
// counted PermanentError like any other 4xx. It does not switch the
// sink to JSON: the next batch is binary again.
func TestHTTPSinkBinaryRefusalIsPermanent(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusUnsupportedMediaType} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			var contentTypes []string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				contentTypes = append(contentTypes, r.Header.Get("Content-Type"))
				if len(contentTypes) == 1 {
					http.Error(w, "refused", status)
					return
				}
				w.WriteHeader(http.StatusAccepted)
			}))
			defer srv.Close()

			sink := &HTTPSink{BaseURL: srv.URL, Binary: true, Retries: 3, Sleep: func(time.Duration) {}}
			batch := []Event{{ImpressionID: "rf-1", CampaignID: "c", Type: EventServed, At: time.Unix(1500000000, 0).UTC()}}
			if err := sink.SubmitBatch(batch); !IsPermanent(err) {
				t.Fatalf("refused batch: %v, want a PermanentError", err)
			}
			if sink.Failed() != 1 || sink.Retried() != 0 {
				t.Fatalf("%d failed, %d retried; want 1 failed, no retry", sink.Failed(), sink.Retried())
			}
			batch[0].ImpressionID = "rf-2"
			if err := sink.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
			want := []string{BinaryContentType, BinaryContentType}
			if !slices.Equal(contentTypes, want) {
				t.Fatalf("requests sent as %q, want %q", contentTypes, want)
			}
		})
	}
}
