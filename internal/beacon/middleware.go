package beacon

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// AuthStats wraps a collection server so that every route needs an
// operator bearer token except the ones anonymous clients and probes
// use: ingestion (POST /v1/events and the GET /v1/events pixel) —
// beacons come from browsers that cannot hold secrets — and /healthz,
// /readyz and /metrics. It is an allow-list, so a route mounted later
// (GET /report, /debug/traces, /debug/pprof/*) and a path that is not
// there at all are refused without the key: aggregated campaign
// performance and traffic timing are business-sensitive.
//
// Accepted credentials: "Authorization: Bearer <key>" or "?key=<key>".
// With no keys configured the wrapper is a transparent pass-through.
func AuthStats(next http.Handler, keys ...string) http.Handler {
	if len(keys) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if openPath(r.URL.Path) || authorized(r, keys) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="qtag-stats"`)
		httpError(w, http.StatusUnauthorized, "this route requires an operator key")
	})
}

// openPath reports whether path is served without the operator key.
func openPath(path string) bool {
	switch path {
	case "/v1/events", "/healthz", "/readyz", "/metrics":
		return true
	default:
		return false
	}
}

func authorized(r *http.Request, keys []string) bool {
	presented := r.URL.Query().Get("key")
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		presented = strings.TrimPrefix(h, "Bearer ")
	}
	if presented == "" {
		return false
	}
	for _, k := range keys {
		if subtle.ConstantTimeCompare([]byte(presented), []byte(k)) == 1 {
			return true
		}
	}
	return false
}
