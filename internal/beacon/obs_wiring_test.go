package beacon

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qtag/internal/obs"
)

var obsEpoch = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func mkEvent(id string) Event {
	return Event{ImpressionID: id, CampaignID: "c1", Type: EventServed, At: obsEpoch.Add(time.Second)}
}

func TestDiscardSink(t *testing.T) {
	if err := Discard.Submit(mkEvent("i1")); err != nil {
		t.Fatal(err)
	}
	if err := Discard.SubmitBatch([]Event{mkEvent("i1"), mkEvent("i2")}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueTracerRecordsFlushes(t *testing.T) {
	store := NewStore()
	q := NewQueueSink(store, QueueOptions{})
	tr := obs.NewLifecycleTracer(obsEpoch)
	q.SetTracer(tr)
	if err := q.Submit(mkEvent("i1")); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, q)

	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Stage != obs.StageFlushed {
		t.Fatalf("spans = %v, want one flushed span", spans)
	}
	// Span timestamps come from the event, not the wall clock.
	if spans[0].At != time.Second {
		t.Fatalf("span At = %v, want the event's 1s offset", spans[0].At)
	}
	if q.FlushLatency().Count() == 0 {
		t.Fatal("flush latency histogram never observed")
	}
}

func TestQueueTracerRecordsPermanentDrops(t *testing.T) {
	// A downstream that refuses one event of a batch refuses the batch:
	// every event of it is counted failed and traced dropped, none
	// flushed.
	permanent := batchSinkFunc(func(es []Event) error {
		for _, e := range es {
			if e.ImpressionID == "poison" {
				return &PermanentError{Err: errors.New("rejected")}
			}
		}
		return nil
	})
	q := NewQueueSink(permanent, QueueOptions{})
	tr := obs.NewLifecycleTracer(obsEpoch)
	q.SetTracer(tr)
	if err := q.SubmitBatch([]Event{mkEvent("i1"), mkEvent("poison"), mkEvent("i2")}); err != nil {
		t.Fatal(err)
	}
	drainAndClose(t, q)
	if st := q.Stats(); st.Failed != 3 || st.Flushed != 0 {
		t.Fatalf("stats = %+v, want the whole batch failed", st)
	}
	for _, sp := range tr.Spans() {
		if sp.Stage != obs.StageDropped {
			t.Fatalf("span %v, want every span dropped", sp)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("%d spans, want 3", tr.Len())
	}
}

func TestQueueTracerRecordsBatchDrops(t *testing.T) {
	permanent := batchSinkFunc(func([]Event) error {
		return &PermanentError{Err: errors.New("rejected")}
	})
	q := NewQueueSink(permanent, QueueOptions{})
	tr := obs.NewLifecycleTracer(obsEpoch)
	q.SetTracer(tr)
	if err := q.Submit(mkEvent("i1")); err != nil {
		t.Fatal(err)
	}
	waitFailed(t, q)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Stage != obs.StageDropped {
		t.Fatalf("spans = %v, want one dropped span", spans)
	}
}

// batchSinkFunc adapts a function to BatchSink for tests.
type batchSinkFunc func([]Event) error

func (f batchSinkFunc) Submit(e Event) error         { return f([]Event{e}) }
func (f batchSinkFunc) SubmitBatch(es []Event) error { return f(es) }

func waitDrained(t *testing.T, q *QueueSink) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := q.Stats(); s.Depth == 0 && s.Flushed+s.Failed+s.Dropped >= s.Enqueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never drained: %s", q.Stats())
}

func waitFailed(t *testing.T, q *QueueSink) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if q.Stats().Failed > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never recorded a failure: %s", q.Stats())
}

func TestHTTPSinkTracer(t *testing.T) {
	store := NewStore()
	collector := httptest.NewServer(NewServer(store))
	defer collector.Close()

	tr := obs.NewLifecycleTracer(obsEpoch)
	sink := &HTTPSink{BaseURL: collector.URL, Tracer: tr}
	if err := sink.SubmitBatch([]Event{mkEvent("i1"), mkEvent("i2")}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Stage != obs.StageDelivered {
			t.Fatalf("stage = %s, want delivered", s.Stage)
		}
	}

	// A permanent rejection records dropped spans.
	trBad := obs.NewLifecycleTracer(obsEpoch)
	bad := &HTTPSink{BaseURL: collector.URL, Tracer: trBad}
	if err := bad.SubmitBatch([]Event{{ImpressionID: "ix", CampaignID: "c1", Type: "bogus", At: obsEpoch}}); err == nil {
		t.Fatal("bogus event accepted")
	}
	spans = trBad.Spans()
	if len(spans) != 1 || spans[0].Stage != obs.StageDropped {
		t.Fatalf("spans = %v, want one dropped span", spans)
	}
}

func TestStringersAndAccessors(t *testing.T) {
	if got := (QueueStats{Depth: 1, Enqueued: 2, Flushed: 1, Dropped: 1}).String(); !strings.Contains(got, "depth=1") {
		t.Errorf("QueueStats.String() = %q", got)
	}
	for state, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if state.String() != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", state, state.String(), want)
		}
	}
	inner := errors.New("boom")
	perr := &PermanentError{Err: inner}
	if perr.Error() != "boom" || !errors.Is(perr, inner) {
		t.Errorf("PermanentError Error/Unwrap broken: %v", perr)
	}

	store := NewStore()
	collector := httptest.NewServer(NewServer(store))
	defer collector.Close()
	sink := &HTTPSink{BaseURL: collector.URL}
	if err := sink.Submit(mkEvent("i1")); err != nil {
		t.Fatal(err)
	}
	if sink.Delivered() != 1 {
		t.Errorf("Delivered() = %d, want 1", sink.Delivered())
	}
	// A permanent server rejection surfaces the status in the error text.
	err := sink.SubmitBatch([]Event{{ImpressionID: "ix", CampaignID: "c1", Type: "bogus", At: obsEpoch}})
	if err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("rejection error = %v, want status 422 in text", err)
	}
}

func TestServerMount(t *testing.T) {
	server := NewServer(NewStore())
	server.Mount("GET /custom", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	srv := httptest.NewServer(server)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/custom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("/custom = %d, want 418", resp.StatusCode)
	}
}

func TestBreakerStateMetric(t *testing.T) {
	failing := batchSinkFunc(func([]Event) error { return errors.New("down") })
	b := NewCircuitBreaker(failing, 2, time.Minute)
	reg := obs.NewRegistry()
	b.RegisterMetrics(reg)

	if got := reg.Values()["qtag_breaker_state"]; got != 0 {
		t.Fatalf("closed breaker state = %g, want 0", got)
	}
	for i := 0; i < 2; i++ {
		_ = b.Submit(mkEvent("i1"))
	}
	v := reg.Values()
	if v["qtag_breaker_state"] != 1 {
		t.Fatalf("open breaker state = %g, want 1", v["qtag_breaker_state"])
	}
	if v["qtag_breaker_trips_total"] != 1 {
		t.Fatalf("trips = %g, want 1", v["qtag_breaker_trips_total"])
	}
	_ = b.Submit(mkEvent("i2")) // rejected while open
	if got := reg.Values()["qtag_breaker_rejected_total"]; got != 1 {
		t.Fatalf("rejected = %g, want 1", got)
	}
	if s := b.State().String(); s != "open" {
		t.Fatalf("State() = %q, want open", s)
	}
}
