package beacon

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// AuthStats wraps a collection server so that the read routes over the
// counts (/report, /v1/stats, /v1/campaigns/{id}/stats, /v1/breakdown)
// require an operator bearer token, while the ingestion endpoints stay
// open — beacons come from anonymous browsers that cannot hold secrets,
// but aggregated campaign performance is business-sensitive.
//
// Accepted credentials: "Authorization: Bearer <key>" or "?key=<key>".
// With no keys configured the wrapper is a transparent pass-through.
func AuthStats(next http.Handler, keys ...string) http.Handler {
	if len(keys) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !statsPath(r.URL.Path) || authorized(r, keys) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="qtag-stats"`)
		httpError(w, http.StatusUnauthorized, "stats endpoints require an operator key")
	})
}

func statsPath(path string) bool {
	switch {
	case path == "/report",
		path == "/v1/stats",
		strings.HasPrefix(path, "/v1/campaigns/"),
		path == "/v1/breakdown":
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
