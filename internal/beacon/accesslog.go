package beacon

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"qtag/internal/obs"
	"qtag/internal/version"
)

// responseRecorder captures the status code and body size a handler
// produced, for the access log and for span attributes.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher so streaming handlers keep working
// behind the recorder.
func (r *responseRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLogOptions configures AccessLog.
type AccessLogOptions struct {
	// Logger receives the log lines (slog.Default when nil).
	Logger *slog.Logger
	// LogAll emits one INFO line per request. Off by default: at ingest
	// rates an unconditional access log is itself a perf hazard.
	LogAll bool
	// SlowThreshold, when > 0, emits a WARN "slow request" line for any
	// request at least this slow — the flag-gated slow-request log that
	// carries the trace ID for /debug/traces lookup.
	SlowThreshold time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// AccessLog wraps next with per-request logging: method, path, status,
// response bytes, duration, and the request's trace ID when tracing is
// active. With neither LogAll nor SlowThreshold set it returns next
// unchanged — zero overhead when disabled.
func AccessLog(next http.Handler, opts AccessLogOptions) http.Handler {
	if !opts.LogAll && opts.SlowThreshold <= 0 {
		return next
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Cluster probes are not logged: failure-detector traffic would
		// flood the log.
		if strings.HasPrefix(r.Header.Get("User-Agent"), version.ProbeUserAgentPrefix) {
			next.ServeHTTP(w, r)
			return
		}
		start := now()
		rec := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := now().Sub(start)

		slow := opts.SlowThreshold > 0 && elapsed >= opts.SlowThreshold
		if !opts.LogAll && !slow {
			return
		}
		// The server span rewrites the request's traceparent to itself
		// and mirrors the trace ID into the Trace-Id response header;
		// prefer the header (it is set even for new roots).
		traceID := rec.Header().Get(obs.TraceIDResponseHeader)
		if traceID == "" {
			if sc, err := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); err == nil {
				traceID = sc.TraceID.String()
			}
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", elapsed),
		}
		if traceID != "" {
			attrs = append(attrs, slog.String("trace_id", traceID))
		}
		switch {
		case slow:
			logger.Warn("slow request", attrs...)
		case rec.status >= 500:
			logger.Error("request", attrs...)
		case rec.status >= 400:
			logger.Warn("request", attrs...)
		default:
			logger.Info("request", attrs...)
		}
	})
}
