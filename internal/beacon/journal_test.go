package beacon

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonl renders events the way servers before the WAL journaled them:
// one JSON object per line.
func jsonl(t *testing.T, events ...Event) string {
	t.Helper()
	var b strings.Builder
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestJournalRoundTrip(t *testing.T) {
	journal := jsonl(t,
		ev("a", "c1", "", EventServed),
		ev("a", "c1", SourceQTag, EventLoaded),
		ev("a", "c1", SourceQTag, EventInView),
	)
	store := NewStore()
	rec := Record(store)
	st, err := ReplayJournal(strings.NewReader(journal), store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 3 || st.Skipped != 0 {
		t.Errorf("replay stats = %+v", st)
	}
	if stored(rec, "c1", "", EventServed) != 1 || stored(rec, "c1", SourceQTag, EventInView) != 1 {
		t.Error("replayed store contents wrong")
	}
}

func TestReplayTolerantOfCorruption(t *testing.T) {
	lines := strings.SplitAfter(jsonl(t, ev("a", "c1", "", EventServed), ev("b", "c1", "", EventServed)), "\n")
	// Simulate a torn tail write plus garbage in the middle.
	corrupted := lines[0] + "NOT JSON AT ALL\n" + `{"type":"bogus"}` + "\n" + lines[1][:len(lines[1])/2]
	store := NewStore()
	rec := Record(store)
	st, err := ReplayJournal(strings.NewReader(corrupted), store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 {
		t.Errorf("replayed = %d, want 1", st.Replayed)
	}
	if st.Skipped != 3 { // garbage line, invalid event, torn tail
		t.Errorf("skipped = %d, want 3", st.Skipped)
	}
	if stored(rec, "c1", "", EventServed) != 1 {
		t.Error("surviving event not replayed")
	}
}

// A power loss can leave a zero-filled page where the journal's tail
// was: one run far longer than any line. Replay skips it and goes on.
func TestReplaySkipsOverlongLine(t *testing.T) {
	journal := strings.Repeat("\x00", 2<<20) + "\n" + jsonl(t, ev("a", "c1", "", EventServed))
	store := NewStore()
	rec := Record(store)
	st, err := ReplayJournal(strings.NewReader(journal), store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 || st.Skipped != 1 || stored(rec, "c1", "", EventServed) != 1 {
		t.Fatalf("replay stats = %+v, store served %d; want 1 replayed, 1 skipped", st, stored(rec, "c1", "", EventServed))
	}
}

func TestReplayEmptyAndBlankLines(t *testing.T) {
	store := NewStore()
	st, err := ReplayJournal(strings.NewReader("\n\n  \n"), store)
	if err != nil || st.Replayed != 0 || st.Skipped != 0 {
		t.Errorf("blank journal: %+v, %v", st, err)
	}
}

func TestJournalFileAndRestartFlow(t *testing.T) {
	// The restart flow: a journal file on disk replays into a fresh
	// store, and replaying it again is idempotent.
	path := filepath.Join(t.TempDir(), "beacons.jsonl")
	journal := jsonl(t, ev("a", "c1", "", EventServed), ev("a", "c1", SourceQTag, EventLoaded))
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored := NewStore()
	restoredRec := Record(restored)
	st, err := ReplayJournal(f, restored)
	if err != nil || st.Replayed != 2 {
		t.Fatalf("replay: %+v, %v", st, err)
	}
	if stored(restoredRec, "c1", "", EventServed) != 1 || stored(restoredRec, "c1", SourceQTag, EventLoaded) != 1 {
		t.Error("restored store wrong")
	}
	// Replaying again is harmless.
	f2, _ := os.Open(path)
	defer f2.Close()
	ReplayJournal(f2, restored)
	if restored.Len() != 2 {
		t.Errorf("idempotent replay broke: %d events", restored.Len())
	}
}

func TestTeeErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := SinkFunc(func(Event) error { return boom })
	store := NewStore()
	sink := Tee(store, bad)
	if err := sink.Submit(ev("a", "c", "", EventServed)); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// The earlier sink already ingested — that is documented and safe.
	if store.Len() != 1 {
		t.Error("first sink should have ingested")
	}
}

func TestPixelFallbackEndpoint(t *testing.T) {
	store := NewStore()
	rec := Record(store)
	server := NewServer(store)
	srv := httptest.NewServer(server)
	defer srv.Close()

	payload := `{"impression_id":"i1","campaign_id":"c1","source":"qtag","type":"in-view"}`
	resp, err := http.Get(srv.URL + "/v1/events?e=" + url.QueryEscape(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/gif" {
		t.Errorf("content type = %q", ct)
	}
	if stored(rec, "c1", SourceQTag, EventInView) != 1 {
		t.Error("pixel event not ingested")
	}

	// Garbage still yields the GIF (the <img> can't handle errors) but
	// counts as rejected.
	resp2, err := http.Get(srv.URL + "/v1/events?e=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("garbage status = %d", resp2.StatusCode)
	}
	if server.Rejected() != 1 {
		t.Errorf("rejected = %d", server.Rejected())
	}
	// No parameter at all: just the pixel.
	resp3, _ := http.Get(srv.URL + "/v1/events")
	resp3.Body.Close()
	if store.Len() != 1 {
		t.Errorf("store grew unexpectedly: %d", store.Len())
	}
}
