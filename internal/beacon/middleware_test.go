package beacon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// authedServer is a collection server behind AuthStats, with stand-ins
// for the routes mounted beside the built-in ones: the report and the
// debug routes.
func authedServer(t *testing.T, keys ...string) *httptest.Server {
	t.Helper()
	server := NewServer(NewStore())
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	for _, pattern := range []string{"GET /report", "GET /debug/traces", "GET /debug/pprof/"} {
		server.Mount(pattern, ok)
	}
	srv := httptest.NewServer(AuthStats(server, keys...))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string, header ...string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// Every route outside the allow-list needs the key — the mounted ones,
// and a path nothing serves, so a route added later is guarded too.
func TestAuthStatsProtectsReads(t *testing.T) {
	srv := authedServer(t, "secret-1", "secret-2")
	for _, path := range []string{"/report", "/report?federated=1", "/debug/traces", "/debug/pprof/cmdline", "/nonesuch"} {
		if resp := get(t, srv.URL+path); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("unauthenticated %s = %d", path, resp.StatusCode)
		}
	}
	// Bearer token works; either configured key is accepted.
	if resp := get(t, srv.URL+"/report", "Authorization", "Bearer secret-2"); resp.StatusCode != http.StatusOK {
		t.Errorf("bearer report = %d", resp.StatusCode)
	}
	// Query key works.
	for _, path := range []string{"/report?key=secret-1", "/debug/traces?key=secret-1"} {
		if resp := get(t, srv.URL+path); resp.StatusCode != http.StatusOK {
			t.Errorf("query-key %s = %d", path, resp.StatusCode)
		}
	}
	// With the key, a path nothing serves is the mux's 404.
	if resp := get(t, srv.URL+"/nonesuch?key=secret-1"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("query-key unknown path = %d", resp.StatusCode)
	}
	// Wrong key denied.
	if resp := get(t, srv.URL+"/report?key=wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong key = %d", resp.StatusCode)
	}
}

// Ingestion and the probes stay open: browsers and load balancers hold
// no key.
func TestAuthStatsLeavesIngestionOpen(t *testing.T) {
	srv := authedServer(t, "secret")
	resp, err := http.Post(srv.URL+"/v1/events", "application/json",
		strings.NewReader(`{"impression_id":"x","campaign_id":"c","type":"served"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("open ingestion = %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/events?e="} {
		if r := get(t, srv.URL+path); r.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", path, r.StatusCode)
		}
	}
}

func TestAuthStatsNoKeysPassThrough(t *testing.T) {
	srv := authedServer(t) // no keys
	for _, path := range []string{"/report", "/debug/traces"} {
		if resp := get(t, srv.URL+path); resp.StatusCode != http.StatusOK {
			t.Errorf("keyless deployment should stay open: %s = %d", path, resp.StatusCode)
		}
	}
}
