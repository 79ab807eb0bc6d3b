package beacon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/admission"
	"qtag/internal/imptable"
	"qtag/internal/jsonenc"
	"qtag/internal/obs"
)

// Server is the HTTP collection endpoint tags send beacons to — the
// "monitoring server" of §3. It exposes:
//
//	POST /v1/events              ingest one request's events: a JSON object, a JSON array, or a binary batch frame
//	GET  /healthz                liveness probe
//	GET  /readyz                 readiness probe (see SetReadiness)
//	GET  /metrics                Prometheus text exposition
//
// Ingestion is idempotent (see Store.Submit), so tags may retry beacons
// freely. The read route over the counts, internal/report's GET
// /report, is mounted beside these (see Mount).
type Server struct {
	store     *Store
	sink      Sink
	mux       *http.ServeMux
	accepted  atomic.Int64
	rejected  atomic.Int64
	oversized atomic.Int64
	doomed    atomic.Int64 // requests refused because their budget was already spent
	maxBody   atomic.Int64 // request-body cap for POST /v1/events
	// scribble and keepBodies, set by tests, change what releaseBody does
	// with a body. scribble overwrites it before giving it back, so that
	// anything still aliasing one reads garbage instead of the request it
	// came in; keepBodies never gives it back, so that every body keeps
	// the bytes it came with.
	scribble, keepBodies atomic.Bool

	// reg is the server's metrics registry, exported at GET /metrics in
	// Prometheus text format. The ingest counters above are registered on
	// it at construction; /healthz stays a thin JSON view over the same
	// instruments.
	reg           *obs.Registry
	ingestLatency *obs.Histogram
	now           func() time.Time

	// tracer is the distributed tracer for ingest requests; nil (the
	// default) keeps the pre-tracing behavior: latency histograms only.
	tracer atomic.Pointer[obs.Tracer]

	healthMu     sync.Mutex
	healthExtras []healthMetric

	readyMu sync.Mutex
	ready   func() error
}

// healthMetric is one operator-registered /healthz gauge.
type healthMetric struct {
	name string
	fn   func() int64
}

// DefaultMaxBodyBytes bounds request bodies; a batch of beacons is
// small, and an unbounded read would let a client exhaust memory.
// Override per server with SetMaxBodyBytes.
const DefaultMaxBodyBytes = 4 << 20

// NewServer wraps a store with the HTTP collection API.
func NewServer(store *Store) *Server { return NewServerWithSink(store, store) }

// NewServerWithSink separates ingestion from storage: incoming events
// go to sink (typically Tee(store, journal)) while /healthz and /metrics
// read store. The sink must (directly or indirectly) feed the store or
// they will stay empty. Each POST /v1/events request reaches sink
// as one SubmitBatch when sink is a BatchSink, and as one Submit per
// event, stopping at the first error, when it is not; either way the
// request is accepted or refused whole.
func NewServerWithSink(store *Store, sink Sink) *Server {
	s := &Server{store: store, sink: sink, mux: http.NewServeMux(), reg: obs.NewRegistry(), now: time.Now}
	s.maxBody.Store(DefaultMaxBodyBytes)
	s.reg.CounterFunc("qtag_ingest_accepted_total", "Events accepted by the collection endpoints.", s.accepted.Load)
	s.reg.CounterFunc("qtag_ingest_rejected_total", "Events refused by validation.", s.rejected.Load)
	s.reg.CounterFunc("qtag_ingest_oversized_total", "Requests refused because the body exceeded the size limit.", s.oversized.Load)
	s.reg.CounterFunc("qtag_ingest_doomed_total", "Requests refused before any WAL work because their deadline budget was already spent.", s.doomed.Load)
	s.reg.GaugeFunc("qtag_store_events", "Distinct events accepted.",
		func() float64 { return float64(store.Len()) })
	s.reg.GaugeFunc("qtag_store_closed_impressions", "Closed impressions whose records the store keeps for dedup: its one growing memory.",
		func() float64 {
			n := 0
			store.Impressions(func(t *imptable.Table) { n += t.Closed() })
			return float64(n)
		})
	s.ingestLatency = s.reg.Histogram("qtag_ingest_latency_seconds",
		"Wall time spent handling one /v1/events ingestion request.", obs.LatencyBuckets)
	s.mux.HandleFunc("POST /v1/events", s.instrument("ingest.events", s.handleEvents))
	s.mux.HandleFunc("GET /v1/events", s.instrument("ingest.pixel", s.handlePixelEvent))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	return s
}

// Metrics returns the server's registry so callers can register the rest
// of the pipeline (queue, breaker, journal, admission controller) for export
// on the same GET /metrics endpoint.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetClock overrides the server's time source for the handler-latency
// histogram (tests).
func (s *Server) SetClock(now func() time.Time) { s.now = now }

// SetTracer installs the distributed tracer for the ingestion routes.
// Each /v1/events request then runs inside a span that continues the
// caller's traceparent (or roots a new trace), and sampled traces stamp
// their context into every accepted event so downstream hops — queue,
// forwarder, hinted handoff — stay on the same trace. Safe to call
// concurrently with serving; nil uninstalls.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// instrument wraps an ingestion handler with the handler-latency
// histogram and, when a tracer is installed, a server span named op.
// The span rides the request context (obs.SpanFromContext); sampled
// requests also pin their trace ID to the latency histogram bucket as
// an OpenMetrics exemplar.
func (s *Server) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		tr := s.tracer.Load()
		if tr == nil {
			h(w, r)
			s.ingestLatency.ObserveDuration(s.now().Sub(start))
			return
		}
		sp := tr.StartSpanParent(r.Header.Get(obs.TraceParentHeader), op)
		r.Header.Set(obs.TraceParentHeader, sp.TraceParent())
		w.Header().Set(obs.TraceIDResponseHeader, sp.Context().TraceID.String())
		rec := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		elapsed := s.now().Sub(start)
		if sp.Sampled() {
			s.ingestLatency.ObserveExemplar(elapsed.Seconds(), sp.Context().TraceID.String(), s.now())
		} else {
			s.ingestLatency.ObserveDuration(elapsed)
		}
		sp.SetAttr("http.status", strconv.Itoa(rec.status))
		if rec.status >= 500 {
			sp.SetError("http status " + strconv.Itoa(rec.status))
		}
		sp.End()
	}
}

// AddHealthMetric registers an extra delivery-health gauge reported in
// the /healthz payload (e.g. admission shed count, journal backlog).
// Stress harnesses assert on these to verify graceful degradation.
//
// AddHealthMetric is safe to call concurrently and after the server has
// started serving: the gauge slice is mutex-guarded against in-flight
// /healthz collections. fn itself must be safe for concurrent use — it
// is invoked from request goroutines.
func (s *Server) AddHealthMetric(name string, fn func() int64) {
	s.healthMu.Lock()
	s.healthExtras = append(s.healthExtras, healthMetric{name: name, fn: fn})
	s.healthMu.Unlock()
}

// handleHealthz reports liveness plus the collector's delivery-health
// counters: stored events, ingestion accept/reject totals, and any
// registered extras.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	payload := map[string]any{
		"status":   "ok",
		"events":   s.store.Len(),
		"accepted": s.accepted.Load(),
		"rejected": s.rejected.Load(),
	}
	s.healthMu.Lock()
	for _, m := range s.healthExtras {
		payload[m.name] = m.fn()
	}
	s.healthMu.Unlock()
	writeJSON(w, http.StatusOK, payload)
}

// SetReadiness installs the readiness check behind GET /readyz.
// Liveness (/healthz) answers "is the process up" and never flips on
// load; readiness answers "should traffic be routed here right now" —
// a load balancer or cluster peer consults it so it never sends
// beacons to a node that would shed them (WAL boot replay still
// running, hinted-handoff drain backlog over its threshold, overload
// shedding active). fn returning nil means ready; a non-nil error is
// reported as the 503 reason. fn must be safe for concurrent use; a
// nil fn (the default) reports always-ready.
//
// SetReadiness is safe to call concurrently and after the server has
// started serving — boot code flips from a "replaying" check to the
// steady-state one once recovery completes.
func (s *Server) SetReadiness(fn func() error) {
	s.readyMu.Lock()
	s.ready = fn
	s.readyMu.Unlock()
}

// handleReadyz reports readiness: 200 when the readiness check passes
// (or none is installed), 503 with the reason otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.readyMu.Lock()
	fn := s.ready
	s.readyMu.Unlock()
	if fn != nil {
		if err := fn(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "unready",
				"reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Mount attaches an additional handler under the server's mux — used to
// co-host the read routes over the counts (internal/report) with the
// collection endpoints. The pattern follows net/http ServeMux syntax and
// must not collide with the built-in routes.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Accepted returns the number of events ingested since startup.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Rejected returns the number of events refused by validation.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// ingestResponse is the POST /v1/events reply body.
type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
}

// SetMaxBodyBytes overrides the POST /v1/events body-size limit. Safe to
// call concurrently with serving; n <= 0 restores the default.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	s.maxBody.Store(n)
}

// Oversized returns the number of requests refused for exceeding the
// body-size limit.
func (s *Server) Oversized() int64 { return s.oversized.Load() }

// Doomed returns the number of requests refused because their deadline
// budget was already spent on arrival.
func (s *Server) Doomed() int64 { return s.doomed.Load() }

// handleEvents ingests one request: a JSON event object, a JSON array of
// events, or a binary batch frame (Content-Type application/x-qtag-binary).
// A request is applied atomically with respect to validation: every
// event is validated before any is submitted, so a malformed or invalid
// entry rejects the whole request (422) and the store is untouched — a
// retrying client never has to reason about which half of its batch
// landed.
//
// The validated events then go down the sink chain as one SubmitBatch —
// one pass per shard lock, one WAL hand-off or queue push for all of
// them — and the request is accepted (202) or rejected as a whole,
// rejected = N. A sink failure the client can outwait (queue full,
// breaker open, journal down) is 503, which HTTPSink retries; one it
// cannot (a PermanentError, such as a batch longer than the queue) is
// 422. Either way a client that re-sends the request lands each event
// once: some may have landed before the failure, and ingestion is
// idempotent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Deadline propagation: a client (or forwarding peer) may stamp its
	// remaining per-request budget. A request whose budget is already
	// spent is doomed — the caller has given up — so refuse it here,
	// before any decode, store or WAL work is spent on it. The deadline
	// is re-checked against the server clock only at arrival; in-flight
	// queueing after this point is bounded by the handler itself.
	budget, hasBudget, berr := admission.ParseBudget(r.Header)
	if berr != nil {
		httpError(w, http.StatusBadRequest, berr.Error())
		return
	}
	var deadline time.Time
	if hasBudget {
		if budget <= 0 {
			s.doomed.Add(1)
			httpError(w, http.StatusRequestTimeout, "deadline budget already spent")
			return
		}
		deadline = s.now().Add(budget)
	}
	// A declared length over the limit is refused from the header, before
	// a byte of the body is read; a chunked body is bounded as it is read.
	limit := s.maxBody.Load()
	if r.ContentLength > limit {
		s.refuseOversized(w, limit)
		return
	}
	// Both Content-Types are read into one pooled buffer, which goes back
	// to the pool when the handler returns. Both decoders' events alias
	// it, so they are valid only until then: every sink copies what it
	// keeps past Submit (see Sink). The decoders' []Event scratch is
	// pooled too and goes back cleared, so that it keeps no body alive.
	body, rerr := readBody(w, r, limit)
	defer s.releaseBody(body)
	if rerr != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(rerr, &tooLarge) {
			s.refuseOversized(w, limit)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: "+rerr.Error())
		return
	}
	var (
		events []Event
		derr   error
	)
	dec := batchDecoderPool.Get().(*BatchDecoder)
	defer putBatchDecoder(dec)
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		events, derr = dec.Decode(body.Bytes())
		if errors.Is(derr, ErrBinaryVersion) {
			// A codec version this server does not speak: answer 415,
			// distinct from 400 for a corrupt frame.
			httpError(w, http.StatusUnsupportedMediaType, derr.Error())
			return
		}
	} else {
		events, derr = dec.decodeJSON(body.Bytes())
	}
	if derr != nil {
		httpError(w, http.StatusBadRequest, derr.Error())
		return
	}
	for _, e := range events {
		if verr := e.Validate(); verr != nil {
			s.rejected.Add(int64(len(events)))
			writeIngestReply(w, http.StatusUnprocessableEntity, ingestResponse{
				Rejected: len(events),
				Error:    verr.Error(),
			})
			return
		}
	}
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		sp.SetAttr("events", strconv.Itoa(len(events)))
		if len(events) > 0 {
			// The span outlives the request in the span store; the
			// campaign must not alias the body.
			sp.SetAttr("campaign", strings.Clone(events[0].CampaignID))
		}
		// Only sampled traces stamp context into events — unsampled
		// traces would pay propagation cost for spans nobody records.
		if tp := sp.TraceParent(); sp.Sampled() && tp != "" {
			for i := range events {
				if events[i].Trace == "" {
					events[i].Trace = tp
				}
			}
		}
	}
	if !deadline.IsZero() {
		// Carry the remaining budget with each event so downstream hops
		// (cluster forwards) can decrement it — and a last-instant doom
		// check guards the expensive Submit path itself.
		if !deadline.After(s.now()) {
			s.doomed.Add(1)
			httpError(w, http.StatusRequestTimeout, "deadline budget spent before durable apply")
			return
		}
		for i := range events {
			events[i].Deadline = deadline
		}
	}
	// Validation passed for the whole request; a sink failure from here
	// on is infrastructure (queue full, breaker open, journal down).
	resp, status := ingestResponse{Accepted: len(events)}, http.StatusAccepted
	if len(events) > 0 { // an empty array is accepted without troubling the chain
		if err := submitBatch(s.sink, events); err != nil {
			resp = ingestResponse{Rejected: len(events), Error: err.Error()}
			status = http.StatusServiceUnavailable
			if IsPermanent(err) {
				status = http.StatusUnprocessableEntity
			}
		}
	}
	s.accepted.Add(int64(resp.Accepted))
	s.rejected.Add(int64(resp.Rejected))
	writeIngestReply(w, status, resp)
}

// handlePixelEvent ingests a single event passed as the "e" query
// parameter — the legacy image-pixel fallback path used by the generated
// JavaScript tag in browsers without navigator.sendBeacon. It answers
// with a 1×1 GIF regardless of validation outcome (the requesting <img>
// cannot do anything with an error anyway), but still counts rejects.
func (s *Server) handlePixelEvent(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("e")
	if raw != "" {
		if e, err := decodeEvent(raw); err == nil && s.sink.Submit(e) == nil {
			s.accepted.Add(1)
		} else {
			s.rejected.Add(1)
		}
	}
	w.Header().Set("Content-Type", "image/gif")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(transparentGIF)
}

// transparentGIF is the canonical 1×1 transparent tracking pixel.
var transparentGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
}

// refuseOversized answers a request whose body exceeds limit.
func (s *Server) refuseOversized(w http.ResponseWriter, limit int64) {
	s.oversized.Add(1)
	httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
}

// maxPooledBody bounds the buffers bodyPool keeps: one grown past it by
// a large request is left to the collector when that request is
// answered, so that a body of up to -max-body-bytes does not stay
// resident for every later small one.
const maxPooledBody = 64 << 10

// bodyPool recycles request-body buffers for both Content-Types. Take one
// with readBody, give it back with releaseBody.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, at most limit bytes, into a buffer from
// bodyPool. A declared Content-Length sizes it once; a chunked body
// grows it as it is read. The buffer comes back even on error, for
// releaseBody.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // and room for ReadFrom to find the EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

// releaseBody gives a body buffer back to bodyPool, unless it has grown
// past maxPooledBody.
func (s *Server) releaseBody(buf *bytes.Buffer) {
	if s.scribble.Load() {
		b := buf.Bytes()
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	if buf.Cap() <= maxPooledBody && !s.keepBodies.Load() {
		bodyPool.Put(buf)
	}
}

// isBinaryContentType reports whether a Content-Type names
// BinaryContentType. Media types compare case-insensitively (RFC 9110
// §8.3.1), and parameters do not change the type.
func isBinaryContentType(contentType string) bool {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.EqualFold(strings.TrimSpace(contentType), BinaryContentType)
}

// decodeEvents accepts either a single JSON event object or a JSON array
// of events, through encoding/json: the decode of whatever the JSON
// decoder (jsondec.go) declines.
func decodeEvents(body []byte) ([]Event, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, errors.New("empty body")
	}
	if trimmed[0] == '[' {
		var events []Event
		if err := json.Unmarshal(body, &events); err != nil {
			return nil, fmt.Errorf("decode event array: %w", err)
		}
		return events, nil
	}
	var e Event
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("decode event: %w", err)
	}
	return []Event{e}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}

// httpError and the ingest route's replies skip encoding/json — the
// route answers every request — and append their JSON with strconv and
// jsonenc to a pooled buffer: byte for byte what writeJSON would write
// (TestIngestRepliesMatchEncodingJSON), written once.
func httpError(w http.ResponseWriter, status int, msg string) {
	bp := replyBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"error":`...)
	*bp = append(jsonenc.AppendString(b, msg), "}\n"...)
	writeReply(w, status, bp)
}

func writeIngestReply(w http.ResponseWriter, status int, resp ingestResponse) {
	bp := replyBufs.Get().(*[]byte)
	*bp = appendIngestReply((*bp)[:0], resp)
	writeReply(w, status, bp)
}

// appendIngestReply appends resp as writeJSON encodes it.
func appendIngestReply(b []byte, resp ingestResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(resp.Accepted), 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(resp.Rejected), 10)
	if resp.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonenc.AppendString(b, resp.Error)
	}
	return append(b, "}\n"...)
}

// replyBufs recycles reply bodies: a ResponseWriter copies what it is
// given, so a buffer is free again once Write returns. One grown past
// 4 KiB by a long error text is left to the collector.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

func writeReply(w http.ResponseWriter, status int, bp *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*bp)
	if cap(*bp) <= 4<<10 {
		replyBufs.Put(bp)
	}
}
