package beacon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/admission"
	"qtag/internal/obs"
)

// errDoomed marks a submission abandoned because the batch's propagated
// deadline was already spent before an attempt could be sent. It is
// wrapped in PermanentError: the client that cared about this work has
// given up, so retrying is pure waste.
var errDoomed = errors.New("beacon: deadline budget spent before send")

// PermanentError marks a delivery failure that retrying cannot heal —
// the server received and understood the request and refused it (a 4xx
// other than 429). Retry layers (HTTPSink's own loop, QueueSink,
// CircuitBreaker) treat permanent errors as delivered-and-rejected: the
// event is dropped rather than retried, and the breaker does not count
// it as an availability failure.
type PermanentError struct{ Err error }

// Error implements error.
func (p *PermanentError) Error() string { return p.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (p *PermanentError) Unwrap() error { return p.Err }

// IsPermanent reports whether err is marked non-retryable.
func IsPermanent(err error) bool {
	var p *PermanentError
	return errors.As(err, &p)
}

// Default retry tuning for HTTPSink. Overridable per sink.
const (
	DefaultTimeout     = 10 * time.Second
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
	// maxRetryAfter caps how long a server-supplied Retry-After header can
	// stall one submission; anything longer is a misconfigured server, not
	// a reason to hang the tag.
	maxRetryAfter = 30 * time.Second
)

// HTTPSink delivers events to a collection Server over HTTP. It implements
// Sink (and BatchSink), so an ad tag is indifferent to whether its beacons
// land in an in-process Store (fast simulation path) or cross a real socket
// (integration tests, examples, production).
//
// Failure handling: transport errors, 5xx and 429 are retried up to
// Retries times with capped exponential backoff, honoring a server
// Retry-After header when one is present (the server's admission
// controller emits them). Other 4xx responses are returned as
// *PermanentError immediately — the server rejected the payload and
// resubmitting the same bytes cannot succeed.
type HTTPSink struct {
	// BaseURL is the collection server root, e.g. "http://127.0.0.1:8640".
	BaseURL string
	// Client is the HTTP client to use; http.DefaultClient when nil.
	Client *http.Client
	// Retries is the number of re-submissions attempted after a retryable
	// failure. Ingestion is idempotent, so retries are always safe.
	Retries int
	// Timeout bounds each individual request attempt (not the whole retry
	// loop) via context; DefaultTimeout when zero, negative disables.
	Timeout time.Duration
	// BackoffBase is the first retry delay; DefaultBackoffBase when zero.
	// Delay doubles per attempt up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth; DefaultBackoffMax when zero.
	BackoffMax time.Duration
	// Jitter, when set, returns a uniform value in [0, 1) used to spread
	// retry delays over [delay/2, delay) — equal jitter. Inject a
	// deterministic source (e.g. simrand.RNG.Float64) to make retry
	// schedules replayable; nil applies the full undithered delay.
	Jitter func() float64
	// BaseContext, when set, supplies the context every submission runs
	// under: each request attempt derives its per-attempt timeout from
	// it, and the backoff sleeps between attempts abort as soon as it is
	// cancelled. Wire a server's shutdown context here so SIGTERM tears
	// down in-flight retries immediately instead of waiting out the
	// backoff schedule. nil means context.Background().
	BaseContext func() context.Context
	// Sleep is the delay function; time.Sleep when nil (tests inject a
	// recorder or no-op).
	Sleep func(time.Duration)
	// Tracer, when set, records a delivered (or dropped) lifecycle span
	// for every event in a batch once the server acknowledges (or
	// permanently rejects) it.
	Tracer *obs.LifecycleTracer
	// Spans, when set, wraps every batch submission in a distributed
	// "sink.deliver" span parented on the batch's first traced event (or
	// rooting a new trace when none carries context), and injects the
	// span's traceparent on the outbound request so the receiving server
	// continues the same trace. Even without Spans, a traced batch still
	// propagates its own context on the wire.
	Spans *obs.Tracer
	// Class, when set, stamps the admission class header (X-Qtag-Class)
	// on every request so the receiving server can prioritize under
	// overload. The hinted-handoff drainer marks its replay sinks
	// "drain"; empty means the server classifies by path (live).
	Class string
	// Binary switches submissions to the compact binary beacon codec
	// (Content-Type: application/x-qtag-binary), encoded into pooled
	// buffers instead of json.Marshal. A 400 or 415 answer to a binary
	// request is a PermanentError like any other 4xx: the sink never
	// switches codec behind its caller's back.
	Binary bool

	retried   atomic.Int64
	delivered atomic.Int64
	failed    atomic.Int64
	latency   onceHistogram
}

// onceHistogram lazily builds the delivery-latency histogram — HTTPSink
// is constructed as a struct literal, so there is no constructor to hook.
type onceHistogram struct {
	once sync.Once
	h    *obs.Histogram
}

func (o *onceHistogram) get() *obs.Histogram {
	o.once.Do(func() { o.h = obs.NewHistogram(obs.LatencyBuckets...) })
	return o.h
}

// RegisterMetrics exports the sink's delivery counters and wire-latency
// histogram on the registry.
func (h *HTTPSink) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_sink_delivered_total", "Successful batch submissions to the collection server.", h.delivered.Load)
	r.CounterFunc("qtag_sink_retried_total", "Retry attempts after retryable delivery failures.", h.retried.Load)
	r.CounterFunc("qtag_sink_failed_total", "Submissions that exhausted retries or were permanently rejected.", h.failed.Load)
	r.RegisterHistogram("qtag_delivery_latency_seconds", "Wire latency per delivery attempt (request to response).", h.latency.get())
}

// DeliveryLatency exposes the per-attempt wire latency histogram.
func (h *HTTPSink) DeliveryLatency() *obs.Histogram { return h.latency.get() }

// Retried returns the number of retry attempts performed (first attempts
// are not counted).
func (h *HTTPSink) Retried() int64 { return h.retried.Load() }

// Delivered returns the number of successful batch submissions.
func (h *HTTPSink) Delivered() int64 { return h.delivered.Load() }

// Failed returns the number of submissions that exhausted retries or hit
// a permanent error.
func (h *HTTPSink) Failed() int64 { return h.failed.Load() }

// Submit implements Sink by POSTing the event to /v1/events.
func (h *HTTPSink) Submit(e Event) error {
	return h.SubmitBatch([]Event{e})
}

// SubmitBatch posts several events in a single request, retrying
// retryable failures with capped exponential backoff.
func (h *HTTPSink) SubmitBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := h.BaseURL + "/v1/events"
	ctx := context.Background()
	if h.BaseContext != nil {
		if c := h.BaseContext(); c != nil {
			ctx = c
		}
	}
	// The outbound traceparent: the delivery span when one is minted,
	// otherwise the batch's own trace context passed through verbatim.
	// The span survives the whole retry loop, so a storm of attempts is
	// one span with a retries attribute, not N disconnected spans.
	traceparent := firstTrace(events)
	sp := h.Spans.StartSpanParent(traceparent, "sink.deliver")
	if sp != nil {
		sp.SetAttr("events", strconv.Itoa(len(events)))
		if tp := sp.TraceParent(); tp != "" {
			traceparent = tp
		}
	}
	defer sp.End()
	// The tightest per-event deadline bounds the whole retry loop: once
	// it passes, whoever submitted these events has stopped waiting, so
	// further attempts (and the receiver's fsyncs) would be pure waste.
	deadline := batchDeadline(events)
	if h.Binary {
		buf := getEncBuf()
		body := AppendBinaryEvents((*buf)[:0], events)
		err := h.deliver(ctx, client, url, body, BinaryContentType, traceparent, deadline, sp, events)
		*buf = body[:0] // keep the grown capacity for the pool
		putEncBuf(buf)
		return err
	}
	body, err := json.Marshal(events)
	if err != nil {
		return &PermanentError{Err: fmt.Errorf("beacon: encode events: %w", err)}
	}
	return h.deliver(ctx, client, url, body, "application/json", traceparent, deadline, sp, events)
}

// deliver runs the retry loop for one encoded body.
func (h *HTTPSink) deliver(ctx context.Context, client *http.Client, url string, body []byte, contentType, traceparent string, deadline time.Time, sp *obs.Span, events []Event) error {
	var lastErr error
	for attempt := 0; attempt <= h.Retries; attempt++ {
		if attempt > 0 {
			h.retried.Add(1)
			if err := h.sleep(ctx, h.backoff(attempt, lastErr)); err != nil {
				// Shutdown (or caller cancellation) aborts the retry loop
				// mid-backoff. The error is retryable — a QueueSink above
				// keeps the events for the journal drain — but this
				// submission is over now, not after the schedule runs out.
				h.failed.Add(1)
				sp.SetError("aborted: " + err.Error())
				return fmt.Errorf("beacon: submit aborted: %w (last error: %v)", err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			h.failed.Add(1)
			sp.SetError("aborted: " + err.Error())
			return fmt.Errorf("beacon: submit aborted: %w (last error: %v)", err, lastErr)
		}
		if !deadline.IsZero() && !deadline.After(time.Now()) {
			h.failed.Add(1)
			h.trace(events, obs.StageDropped)
			sp.SetError(errDoomed.Error())
			return &PermanentError{Err: fmt.Errorf("%w (last error: %v)", errDoomed, lastErr)}
		}
		start := time.Now()
		status, respBody, retryAfter, err := h.post(ctx, client, url, body, contentType, traceparent, deadline)
		h.latency.get().ObserveDuration(time.Since(start))
		if err != nil {
			lastErr = err
			continue
		}
		if status == http.StatusAccepted {
			h.delivered.Add(1)
			h.trace(events, obs.StageDelivered)
			if attempt > 0 {
				sp.SetAttr("retries", strconv.Itoa(attempt))
			}
			return nil
		}
		lastErr = &statusError{status: status, body: respBody, retryAfter: retryAfter}
		if retryableStatus(status) {
			continue
		}
		// Other client errors will not heal on retry: the server parsed
		// the request and rejected it.
		h.failed.Add(1)
		h.trace(events, obs.StageDropped)
		sp.SetError(lastErr.Error())
		return &PermanentError{Err: lastErr}
	}
	h.failed.Add(1)
	sp.SetError(fmt.Sprintf("exhausted %d attempts: %v", h.Retries+1, lastErr))
	return fmt.Errorf("beacon: submit failed after %d attempts: %w", h.Retries+1, lastErr)
}

// batchDeadline returns the earliest non-zero per-event deadline — the
// remaining-budget bound the whole batch must honor (zero: none set).
func batchDeadline(events []Event) time.Time {
	var d time.Time
	for _, e := range events {
		if e.Deadline.IsZero() {
			continue
		}
		if d.IsZero() || e.Deadline.Before(d) {
			d = e.Deadline
		}
	}
	return d
}

// firstTrace returns the first non-empty per-event trace context in the
// batch. Batches are grouped per originating request upstream, so the
// first traced event speaks for the batch.
func firstTrace(events []Event) string {
	for _, e := range events {
		if e.Trace != "" {
			return e.Trace
		}
	}
	return ""
}

// trace records a lifecycle span per event when a tracer is attached.
// Spans carry the event's own timestamp, keeping traces on virtual time.
func (h *HTTPSink) trace(events []Event, stage obs.Stage) {
	if h.Tracer == nil {
		return
	}
	for _, e := range events {
		h.Tracer.Record(e.ImpressionID, e.CampaignID, stage, e.At, string(e.Type))
	}
}

// post performs one attempt under the per-request timeout, derived from
// the submission's base context so shutdown aborts the attempt too. The
// attempt advertises its remaining budget (X-Qtag-Budget-Ms): the
// per-attempt timeout, further clipped by the batch's propagated
// deadline when one is set — so the server can refuse doomed work
// before spending WAL bandwidth on it, and cluster forwards naturally
// hand peers the decremented remainder.
func (h *HTTPSink) post(ctx context.Context, client *http.Client, url string, body []byte, contentType, traceparent string, deadline time.Time) (status int, respBody []byte, retryAfter time.Duration, err error) {
	timeout := h.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	budget := timeout
	if !deadline.IsZero() {
		if rem := time.Until(deadline); budget <= 0 || rem < budget {
			budget = rem
		}
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	if budget > 0 {
		req.Header.Set(admission.BudgetHeader, admission.FormatBudget(budget))
	}
	if h.Class != "" {
		req.Header.Set(admission.ClassHeader, h.Class)
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceParentHeader, traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	respBody, _ = io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, bytes.TrimSpace(respBody), parseRetryAfter(resp.Header.Get("Retry-After")), nil
}

// statusError is a non-2xx response, carrying the server's pushback hint.
type statusError struct {
	status     int
	body       []byte
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("beacon: server returned %d: %s", e.status, e.body)
}

// retryableStatus reports whether a response status is worth retrying:
// server errors, plus the two explicit "come back later" pushback codes.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// backoff computes the delay before the given (1-based) retry attempt. A
// server-supplied Retry-After overrides the exponential schedule.
func (h *HTTPSink) backoff(attempt int, lastErr error) time.Duration {
	var se *statusError
	if errors.As(lastErr, &se) && se.retryAfter > 0 {
		if se.retryAfter > maxRetryAfter {
			return maxRetryAfter
		}
		return se.retryAfter
	}
	base := h.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := h.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	delay := base
	for i := 1; i < attempt && delay < max; i++ {
		delay *= 2
	}
	if delay > max {
		delay = max
	}
	if h.Jitter != nil {
		delay = delay/2 + time.Duration(h.Jitter()*float64(delay/2))
	}
	return delay
}

// sleep waits out a backoff delay, returning early with the context's
// error when it is cancelled first. An injected Sleep (tests, virtual
// clocks) is used as-is — determinism beats cancellation there — but a
// pre-cancelled context still short-circuits it.
func (h *HTTPSink) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if h.Sleep != nil {
		h.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter decodes a Retry-After header value. Only the
// delta-seconds form is honored; the HTTP-date form depends on clock
// agreement with the server and is ignored.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// StampSink wraps a Sink and fills in the At timestamp from a clock
// function when the event carries none.
type StampSink struct {
	Next Sink
	Now  func() time.Time
}

// Submit implements Sink.
func (s *StampSink) Submit(e Event) error {
	if e.At.IsZero() && s.Now != nil {
		e.At = s.Now()
	}
	return s.Next.Submit(e)
}

// SubmitBatch implements BatchSink. It stamps in place — the caller's
// slice carries the timestamps afterwards — and forwards the batch.
func (s *StampSink) SubmitBatch(events []Event) error {
	if s.Now != nil {
		for i := range events {
			if events[i].At.IsZero() {
				events[i].At = s.Now()
			}
		}
	}
	return submitBatch(s.Next, events)
}
