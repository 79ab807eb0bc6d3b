package beacon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func authedServer(t *testing.T, keys ...string) *httptest.Server {
	t.Helper()
	store := NewStore()
	mustSubmit(t, store, ev("i", "c", "", EventServed))
	srv := httptest.NewServer(AuthStats(NewServer(store), keys...))
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
	if resp := get(t, srv.URL+"/v1/campaigns/c/stats"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated campaign stats = %d", resp.StatusCode)
	}
	// Bearer token works; either configured key is accepted.
	if resp := get(t, srv.URL+"/v1/stats", "Authorization", "Bearer secret-2"); resp.StatusCode != http.StatusOK {
		t.Errorf("bearer stats = %d", resp.StatusCode)
	}
	// Query key works.
	if resp := get(t, srv.URL+"/v1/stats?key=secret-1"); resp.StatusCode != http.StatusOK {
		t.Errorf("query-key stats = %d", resp.StatusCode)
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

func TestRateLimiter(t *testing.T) {
	store := NewStore()
	limiter := NewRateLimiter(NewServer(store), 2, 3) // 2/s, burst 3
	now := time.Unix(1000, 0)
	limiter.SetClock(func() time.Time { return now })
	srv := httptest.NewServer(limiter)
	defer srv.Close()

	post := func() int {
		resp, err := http.Post(srv.URL+"/v1/events", "application/json",
			strings.NewReader(`{"impression_id":"x","campaign_id":"c","type":"served","seq":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Burst of 3 allowed, 4th rejected.
	for i := 0; i < 3; i++ {
		if got := post(); got != http.StatusAccepted {
			t.Fatalf("burst request %d = %d", i, got)
		}
	}
	if got := post(); got != http.StatusTooManyRequests {
		t.Fatalf("over-burst = %d", got)
	}
	// Tokens refill with time: +1s → 2 tokens.
	now = now.Add(time.Second)
	if got := post(); got != http.StatusAccepted {
		t.Errorf("post-refill = %d", got)
	}
	// Reads are never limited.
	if r := get(t, srv.URL+"/v1/stats"); r.StatusCode != http.StatusOK {
		t.Errorf("stats limited: %d", r.StatusCode)
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewRateLimiter(NewServer(store), 0, 0))
	defer srv.Close()
	for i := 0; i < 20; i++ {
		resp, err := http.Post(srv.URL+"/v1/events", "application/json",
			strings.NewReader(`{"impression_id":"x","campaign_id":"c","type":"served"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("disabled limiter rejected request %d", i)
		}
	}
}

func TestRateLimiterSweep(t *testing.T) {
	limiter := NewRateLimiter(http.NotFoundHandler(), 10, 5)
	now := time.Unix(0, 0)
	limiter.SetClock(func() time.Time { return now })
	// Create buckets for many clients.
	for i := 0; i < 50; i++ {
		limiter.allow(strings.Repeat("a", i+1))
	}
	if len(limiter.buckets) != 50 {
		t.Fatalf("buckets = %d", len(limiter.buckets))
	}
	// Far in the future, a new request sweeps the idle buckets.
	now = now.Add(time.Hour)
	limiter.allow("fresh")
	if len(limiter.buckets) != 1 {
		t.Errorf("buckets after sweep = %d, want 1", len(limiter.buckets))
	}
}

func TestClientIP(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/events", nil)
	r.RemoteAddr = "203.0.113.9:4711"
	if got := clientIP(r); got != "203.0.113.9" {
		t.Errorf("clientIP = %q", got)
	}
	r.RemoteAddr = "bare-host"
	if got := clientIP(r); got != "bare-host" {
		t.Errorf("fallback clientIP = %q", got)
	}
}
