package beacon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// authedServer is a collection server behind AuthStats, with stand-ins
// for the read routes internal/report mounts beside the built-in ones.
func authedServer(t *testing.T, keys ...string) *httptest.Server {
	t.Helper()
	server := NewServer(NewStore())
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	for _, pattern := range []string{"GET /report", "GET /v1/stats", "GET /v1/campaigns/{id}/stats", "GET /v1/breakdown"} {
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

func TestAuthStatsProtectsReads(t *testing.T) {
	srv := authedServer(t, "secret-1", "secret-2")
	// Unauthenticated stats: denied.
	if resp := get(t, srv.URL+"/v1/stats"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated stats = %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/campaigns/c/stats", "/v1/breakdown?dim=os", "/report", "/report?federated=1"} {
		if resp := get(t, srv.URL+path); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("unauthenticated %s = %d", path, resp.StatusCode)
		}
	}
	// Bearer token works; either configured key is accepted.
	if resp := get(t, srv.URL+"/v1/stats", "Authorization", "Bearer secret-2"); resp.StatusCode != http.StatusOK {
		t.Errorf("bearer stats = %d", resp.StatusCode)
	}
	// Query key works.
	if resp := get(t, srv.URL+"/v1/stats?key=secret-1"); resp.StatusCode != http.StatusOK {
		t.Errorf("query-key stats = %d", resp.StatusCode)
	}
	if resp := get(t, srv.URL+"/report?key=secret-1"); resp.StatusCode != http.StatusOK {
		t.Errorf("query-key report = %d", resp.StatusCode)
	}
	// Wrong key denied.
	if resp := get(t, srv.URL+"/v1/stats?key=wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong key = %d", resp.StatusCode)
	}
}

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
	if r := get(t, srv.URL+"/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", r.StatusCode)
	}
	if r := get(t, srv.URL+"/v1/events?e="); r.StatusCode != http.StatusOK {
		t.Errorf("pixel = %d", r.StatusCode)
	}
}

func TestAuthStatsNoKeysPassThrough(t *testing.T) {
	srv := authedServer(t) // no keys
	if resp := get(t, srv.URL+"/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("keyless deployment should stay open: %d", resp.StatusCode)
	}
}
