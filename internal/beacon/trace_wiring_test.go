package beacon

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qtag/internal/obs"
	"qtag/internal/version"
)

// traceRand returns a deterministic non-zero uint64 stream for tracers.
func traceRand() func() uint64 {
	var mu sync.Mutex
	var n uint64
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		n += 0x9e3779b97f4a7c15
		return n
	}
}

func newTestTracer(store *obs.SpanStore, rate float64) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Node: "test", SampleRate: rate, Store: store, Rand: traceRand()})
}

// captureSink retains a copy of every submitted event.
type captureSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureSink) Submit(e Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e.owned())
	return nil
}

func (c *captureSink) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func postEvents(t *testing.T, s *Server, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr
}

func TestServerTracingStampsSampledEvents(t *testing.T) {
	spans := obs.NewSpanStore(32)
	cap := &captureSink{}
	s := NewServerWithSink(NewStore(), cap)
	s.SetTracer(newTestTracer(spans, 1))

	rr := postEvents(t, s, `[{"impression_id":"i1","campaign_id":"c1","type":"served"},
		{"impression_id":"i1","campaign_id":"c1","source":"qtag","type":"loaded"}]`, nil)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	traceID := rr.Header().Get(obs.TraceIDResponseHeader)
	if len(traceID) != 32 {
		t.Fatalf("Trace-Id header %q", traceID)
	}
	evs := cap.all()
	if len(evs) != 2 {
		t.Fatalf("submitted %d events", len(evs))
	}
	for _, e := range evs {
		sc, err := obs.ParseTraceParent(e.Trace)
		if err != nil {
			t.Fatalf("event trace %q: %v", e.Trace, err)
		}
		if sc.TraceID.String() != traceID {
			t.Fatalf("event trace id %s != response trace id %s", sc.TraceID, traceID)
		}
		if !sc.Sampled() {
			t.Fatal("stamped context must carry the sampled flag")
		}
	}
	recs := spans.Trace(traceID)
	if len(recs) != 1 || recs[0].Name != "ingest.events" {
		t.Fatalf("span store: %+v", recs)
	}
	if recs[0].Attr("campaign") != "c1" || recs[0].Attr("events") != "2" {
		t.Fatalf("span attrs: %+v", recs[0].Attrs)
	}
	// The ingest latency histogram carries the trace as an exemplar.
	s.Metrics().SetExemplars(true)
	if out := s.Metrics().Render(); !strings.Contains(out, `trace_id="`+traceID+`"`) {
		t.Fatalf("exemplar missing from /metrics:\n%s", out)
	}
}

func TestServerTracingContinuesInboundTraceparent(t *testing.T) {
	spans := obs.NewSpanStore(32)
	cap := &captureSink{}
	s := NewServerWithSink(NewStore(), cap)
	s.SetTracer(newTestTracer(spans, 0)) // rate irrelevant: parent decides

	parent := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rr := postEvents(t, s, `{"impression_id":"i1","campaign_id":"c1","type":"served"}`,
		map[string]string{obs.TraceParentHeader: parent})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d", rr.Code)
	}
	if got := rr.Header().Get(obs.TraceIDResponseHeader); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("Trace-Id %q, want the inherited trace id", got)
	}
	evs := cap.all()
	sc, err := obs.ParseTraceParent(evs[0].Trace)
	if err != nil || sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("event trace %q (%v)", evs[0].Trace, err)
	}
	recs := spans.Trace("4bf92f3577b34da6a3ce929d0e0e4736")
	if len(recs) != 1 || recs[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("server span must parent on the inbound context: %+v", recs)
	}
}

func TestServerTracingUnsampledLeavesEventsUnstamped(t *testing.T) {
	spans := obs.NewSpanStore(32)
	cap := &captureSink{}
	s := NewServerWithSink(NewStore(), cap)
	s.SetTracer(newTestTracer(spans, 0))

	rr := postEvents(t, s, `{"impression_id":"i1","campaign_id":"c1","type":"served"}`, nil)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d", rr.Code)
	}
	if evs := cap.all(); evs[0].Trace != "" {
		t.Fatalf("unsampled request must not stamp events, got %q", evs[0].Trace)
	}
	if spans.Len() != 0 {
		t.Fatalf("unsampled ok spans must not be stored: %+v", spans.Snapshot())
	}
	// An existing per-event trace is never overwritten.
	rr = postEvents(t, s, `{"impression_id":"i2","campaign_id":"c1","type":"served","trace":"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}`, nil)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d", rr.Code)
	}
	evs := cap.all()
	if evs[1].Trace != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("pre-existing event trace clobbered: %q", evs[1].Trace)
	}
}

func TestHTTPSinkPropagatesTraceContext(t *testing.T) {
	var mu sync.Mutex
	var gotTraceparent []string
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTraceparent = append(gotTraceparent, r.Header.Get(obs.TraceParentHeader))
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer upstream.Close()

	// Without a Spans tracer the event's own context rides the header.
	sink := &HTTPSink{BaseURL: upstream.URL}
	ev := Event{ImpressionID: "i1", CampaignID: "c1", Type: EventServed,
		Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}
	if err := sink.Submit(ev); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	first := gotTraceparent[0]
	mu.Unlock()
	if first != ev.Trace {
		t.Fatalf("traceparent %q, want pass-through %q", first, ev.Trace)
	}

	// With a Spans tracer the header is a child span of the event trace.
	spans := obs.NewSpanStore(32)
	sink2 := &HTTPSink{BaseURL: upstream.URL, Spans: newTestTracer(spans, 0)}
	if err := sink2.Submit(ev); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	second := gotTraceparent[1]
	mu.Unlock()
	sc, err := obs.ParseTraceParent(second)
	if err != nil {
		t.Fatalf("traceparent %q: %v", second, err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("delivery span must stay on the event's trace, got %s", sc.TraceID)
	}
	if sc.SpanID.String() == "00f067aa0ba902b7" {
		t.Fatal("delivery span must mint its own span id")
	}
	recs := spans.Trace("4bf92f3577b34da6a3ce929d0e0e4736")
	if len(recs) != 1 || recs[0].Name != "sink.deliver" || recs[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("delivery span record: %+v", recs)
	}
}

func TestHTTPSinkDeliverySpanSurvivesRetries(t *testing.T) {
	var calls int
	var mu sync.Mutex
	var headers []string
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		headers = append(headers, r.Header.Get(obs.TraceParentHeader))
		mu.Unlock()
		if n < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer upstream.Close()

	spans := obs.NewSpanStore(32)
	sink := &HTTPSink{
		BaseURL: upstream.URL,
		Retries: 5,
		Sleep:   func(time.Duration) {},
		Spans:   newTestTracer(spans, 1),
	}
	if err := sink.Submit(Event{ImpressionID: "i1", CampaignID: "c1", Type: EventServed}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(headers) != 3 {
		t.Fatalf("attempts = %d, want 3", len(headers))
	}
	if headers[0] != headers[1] || headers[1] != headers[2] {
		t.Fatalf("retries must reuse one delivery span: %v", headers)
	}
	if got := spans.Snapshot(); len(got) != 1 || got[0].Attr("retries") != "2" {
		t.Fatalf("spans: %+v", got)
	}
}

func TestAccessLogLinesAndProbeExclusion(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := NewServerWithSink(NewStore(), &captureSink{})
	s.SetTracer(newTestTracer(obs.NewSpanStore(8), 1))
	h := AccessLog(s, AccessLogOptions{Logger: logger, LogAll: true})

	req := httptest.NewRequest(http.MethodPost, "/v1/events",
		strings.NewReader(`{"impression_id":"i1","campaign_id":"c1","type":"served"}`))
	h.ServeHTTP(httptest.NewRecorder(), req)
	line := buf.String()
	for _, want := range []string{"method=POST", "path=/v1/events", "status=202", "bytes=", "duration=", "trace_id="} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %s:\n%s", want, line)
		}
	}

	// Probe traffic is excluded from both the access log and the ingest
	// latency histogram (probes hit /healthz, which is uninstrumented).
	before := s.ingestLatency.Count()
	buf.Reset()
	probe := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	probe.Header.Set("User-Agent", version.ProbeUserAgent())
	h.ServeHTTP(httptest.NewRecorder(), probe)
	if buf.Len() != 0 {
		t.Fatalf("probe request must not be access-logged:\n%s", buf.String())
	}
	if got := s.ingestLatency.Count(); got != before {
		t.Fatalf("probe request leaked into the ingest histogram: %d -> %d", before, got)
	}

	// 4xx logs at warn.
	buf.Reset()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader("")))
	if !strings.Contains(buf.String(), "level=WARN") {
		t.Fatalf("4xx must log at warn:\n%s", buf.String())
	}
}

func TestAccessLogSlowRequestOnly(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	clock := time.Now()
	step := time.Duration(0)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		step = 80 * time.Millisecond
		w.WriteHeader(http.StatusAccepted)
	})
	h := AccessLog(slow, AccessLogOptions{
		Logger:        logger,
		SlowThreshold: 50 * time.Millisecond,
		Now:           func() time.Time { clock = clock.Add(step); return clock },
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	if !strings.Contains(buf.String(), "slow request") || !strings.Contains(buf.String(), "level=WARN") {
		t.Fatalf("slow request line missing:\n%s", buf.String())
	}

	// Fast requests stay silent when only SlowThreshold is set.
	buf.Reset()
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h2 := AccessLog(fast, AccessLogOptions{Logger: logger, SlowThreshold: 50 * time.Millisecond})
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	if buf.Len() != 0 {
		t.Fatalf("fast request must not log:\n%s", buf.String())
	}
}

func TestAccessLogDisabledIsPassThrough(t *testing.T) {
	next := http.NewServeMux()
	if got := AccessLog(next, AccessLogOptions{}); got != http.Handler(next) {
		t.Fatal("disabled access log must return next unchanged")
	}
}
