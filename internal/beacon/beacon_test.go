package beacon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func ev(imp, camp string, src Source, typ EventType) Event {
	return Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ}
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		err  error
	}{
		{"valid served", ev("i1", "c1", "", EventServed), nil},
		{"valid loaded", ev("i1", "c1", SourceQTag, EventLoaded), nil},
		{"valid in-view", ev("i1", "c1", SourceCommercial, EventInView), nil},
		{"valid out-of-view", ev("i1", "c1", SourceQTag, EventOutOfView), nil},
		{"missing impression", ev("", "c1", SourceQTag, EventLoaded), ErrNoImpression},
		{"missing campaign", ev("i1", "", SourceQTag, EventLoaded), ErrNoCampaign},
		{"served with source", ev("i1", "c1", SourceQTag, EventServed), ErrBadSource},
		{"loaded without source", ev("i1", "c1", "", EventLoaded), ErrBadSource},
		{"unknown type", ev("i1", "c1", SourceQTag, "bogus"), ErrBadType},
	}
	for _, c := range cases {
		err := c.e.Validate()
		if c.err == nil && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.err != nil && !errors.Is(err, c.err) {
			t.Errorf("%s: error = %v, want %v", c.name, err, c.err)
		}
	}
}

func TestEventKeyAndString(t *testing.T) {
	a := ev("i1", "c1", SourceQTag, EventInView)
	b := a
	b.Seq = 1
	if a.Key() == b.Key() {
		t.Error("seq must differentiate keys")
	}
	if !strings.Contains(a.String(), "in-view") {
		t.Errorf("String = %q", a.String())
	}
	served := ev("i1", "c1", "", EventServed)
	if !strings.Contains(served.String(), "dsp") {
		t.Errorf("served String = %q", served.String())
	}
}

func TestStoreIdempotency(t *testing.T) {
	s := NewStore()
	rec := Record(s)
	e := ev("i1", "c1", SourceQTag, EventInView)
	for i := 0; i < 5; i++ {
		if err := s.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after duplicate submits", s.Len())
	}
	if got := rec.Events(); len(got) != 1 || got[0].Key() != e.Key() {
		t.Errorf("Events = %v, want the one event", got)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	if err := s.Submit(Event{}); err == nil {
		t.Error("expected validation error")
	}
	if s.Len() != 0 {
		t.Error("invalid event stored")
	}
}

func TestStoreEventsSorted(t *testing.T) {
	s := NewStore()
	rec := Record(s)
	mustSubmit(t, s, ev("b", "c1", "", EventServed))
	mustSubmit(t, s, ev("a", "c2", "", EventServed))
	mustSubmit(t, s, ev("a", "c1", "", EventServed))
	events := rec.Events()
	if len(events) != 3 {
		t.Fatalf("Events len = %d", len(events))
	}
	if events[0].ImpressionID != "a" || events[0].CampaignID != "c1" {
		t.Errorf("sort order wrong: %v", events)
	}
	if events[2].CampaignID != "c2" {
		t.Errorf("sort order wrong: %v", events)
	}
}

// stored counts the events of one campaign, solution and type r holds.
func stored(r *Recorder, campaign string, src Source, typ EventType) int {
	n := 0
	for _, e := range r.Events() {
		if e.CampaignID == campaign && e.Source == src && e.Type == typ {
			n++
		}
	}
	return n
}

func mustSubmit(t *testing.T, s Sink, e Event) {
	t.Helper()
	if err := s.Submit(e); err != nil {
		t.Fatal(err)
	}
}

func TestServerIngestSingleAndBatch(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()

	// Single event.
	body, _ := json.Marshal(ev("i1", "c1", "", EventServed))
	resp, err := http.Post(srv.URL+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single ingest status = %d", resp.StatusCode)
	}

	// Batch.
	batch, _ := json.Marshal([]Event{
		ev("i1", "c1", SourceQTag, EventLoaded),
		ev("i1", "c1", SourceQTag, EventInView),
	})
	resp, err = http.Post(srv.URL+"/v1/events", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if ir.Accepted != 2 || ir.Rejected != 0 {
		t.Errorf("batch response = %+v", ir)
	}
	if store.Len() != 3 {
		t.Errorf("store has %d events", store.Len())
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore()))
	defer srv.Close()
	for _, body := range []string{"", "not json", `{"type":"bogus"}`, `[{"type":"bogus"}]`} {
		resp, err := http.Post(srv.URL+"/v1/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("body %q: status = %d, want 4xx", body, resp.StatusCode)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestServerReadyz(t *testing.T) {
	s := NewServer(NewStore())
	srv := httptest.NewServer(s)
	defer srv.Close()
	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct{ Status, Reason string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Reason
	}

	// No check installed: always ready.
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("default readyz = %d, want 200", code)
	}
	// An installed failing check flips readiness — liveness untouched.
	s.SetReadiness(func() error { return errors.New("wal boot replay in progress") })
	code, reason := readyz()
	if code != http.StatusServiceUnavailable || !strings.Contains(reason, "replay") {
		t.Fatalf("unready readyz = %d (reason %q), want 503 with the reason", code, reason)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness followed readiness down: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// Boot code swaps the check once recovery completes.
	s.SetReadiness(func() error { return nil })
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("ready readyz = %d, want 200", code)
	}
}

func TestHTTPSinkRetries(t *testing.T) {
	store := NewStore()
	var failures int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures < 2 {
			failures++
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		NewServer(store).ServeHTTP(w, r)
	}))
	defer flaky.Close()
	sink := &HTTPSink{BaseURL: flaky.URL, Retries: 3}
	if err := sink.Submit(ev("i1", "c1", "", EventServed)); err != nil {
		t.Fatalf("retry path failed: %v", err)
	}
	if store.Len() != 1 {
		t.Error("event not stored after retries")
	}
	// 4xx does not retry.
	sink2 := &HTTPSink{BaseURL: flaky.URL, Retries: 3}
	err := sink2.Submit(Event{ImpressionID: "x", CampaignID: "c", Type: "bogus"})
	if err == nil {
		t.Error("invalid event should fail")
	}
}

func TestHTTPSinkConnectionRefused(t *testing.T) {
	sink := &HTTPSink{BaseURL: "http://127.0.0.1:1", Retries: 1}
	if err := sink.Submit(ev("i", "c", "", EventServed)); err == nil {
		t.Error("expected connection error")
	}
	if err := sink.SubmitBatch(nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

func TestStampSink(t *testing.T) {
	store := NewStore()
	rec := Record(store)
	now := time.Date(2019, 12, 9, 12, 0, 0, 0, time.UTC)
	stamp := &StampSink{Next: store, Now: func() time.Time { return now }}
	mustSubmit(t, stamp, ev("i1", "c1", "", EventServed))
	pre := ev("i2", "c1", "", EventServed)
	pre.At = now.Add(-time.Hour)
	mustSubmit(t, stamp, pre)
	events := rec.Events()
	if !events[0].At.Equal(now) {
		t.Errorf("unstamped event got %v", events[0].At)
	}
	if !events[1].At.Equal(now.Add(-time.Hour)) {
		t.Error("pre-stamped event must not be overwritten")
	}
}

func TestSinkFunc(t *testing.T) {
	var got Event
	s := SinkFunc(func(e Event) error { got = e; return nil })
	mustSubmit(t, s, ev("i", "c", "", EventServed))
	if got.ImpressionID != "i" {
		t.Error("SinkFunc did not pass event through")
	}
}

func TestConcurrentSubmit(t *testing.T) {
	s := NewStore()
	rec := Record(s)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				s.Submit(Event{
					ImpressionID: strings.Repeat("g", g+1) + string(rune('0'+i%10)),
					CampaignID:   "c",
					Type:         EventServed,
					Seq:          i,
				})
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() == 0 {
		t.Error("no events stored")
	}
	if got := len(rec.Events()); got != s.Len() {
		t.Errorf("%d events recorded, the store took %d", got, s.Len())
	}
}

// TestServerConcurrentHTTPSoak hammers the collection server from many
// goroutines over a real socket and verifies exact counters afterwards —
// idempotency plus the sharded store must absorb concurrent duplicates.
func TestServerConcurrentHTTPSoak(t *testing.T) {
	store := NewStore()
	rec := Record(store)
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()

	const workers = 8
	const perWorker = 50
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			sink := &HTTPSink{BaseURL: srv.URL, Retries: 1}
			for i := 0; i < perWorker; i++ {
				imp := fmt.Sprintf("imp-%d", i) // same ids across workers: duplicates
				batch := []Event{
					{ImpressionID: imp, CampaignID: "soak", Type: EventServed},
					{ImpressionID: imp, CampaignID: "soak", Source: SourceQTag, Type: EventLoaded},
				}
				if err := sink.SubmitBatch(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every duplicate absorbed: exactly perWorker distinct impressions.
	if got := stored(rec, "soak", "", EventServed); got != perWorker {
		t.Errorf("served = %d, want %d", got, perWorker)
	}
	if got := stored(rec, "soak", SourceQTag, EventLoaded); got != perWorker {
		t.Errorf("loaded = %d, want %d", got, perWorker)
	}
	if store.Len() != 2*perWorker {
		t.Errorf("store len = %d, want %d", store.Len(), 2*perWorker)
	}
}
