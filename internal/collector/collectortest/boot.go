// Package collectortest boots a collector.Stack for a test the way
// qtag-server boots it for an operator, so the proof suites beside
// internal/detect, internal/report and internal/collector drive the
// assembly that ships.
package collectortest

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/collector"
	"qtag/internal/simrand"
)

// Boot opens cfg's stack, serves Stack.Handler() on a loopback
// httptest.Server and starts it. shutdown is qtag-server's SIGTERM — stop
// serving, then Stack.Close — and also runs at test cleanup, where a
// second call does nothing. A nil cfg.Logger discards.
func Boot(t testing.TB, cfg collector.Config) (stack *collector.Stack, url string, shutdown func() error) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	stack, err := collector.Open(cfg)
	if err != nil {
		t.Fatalf("collector.Open: %v", err)
	}
	srv := httptest.NewServer(stack.Handler())
	stack.Start()
	shutdown = func() error {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return stack.Close(ctx)
	}
	t.Cleanup(func() {
		if err := shutdown(); err != nil {
			t.Errorf("collector shutdown: %v", err)
		}
	})
	return stack, srv.URL, shutdown
}

// Drive loads a booted stack with `actors` honest campaign actors
// (campaign.RunActor), one goroutine and one campaign each, delivering
// through the production client, beacon.HTTPSink, one beacon per POST.
// Honest actors never re-send, so the returned count of submissions is
// the count of distinct events the collector must end up holding. A
// delivery failure fails the test.
func Drive(t testing.TB, url string, seed uint64, actors, impressions int) (events int) {
	t.Helper()
	transport := &http.Transport{MaxIdleConnsPerHost: actors}
	defer transport.CloseIdleConnections()
	sink := &beacon.HTTPSink{BaseURL: url, Client: &http.Client{Transport: transport}, Retries: 2}
	var wg sync.WaitGroup
	var sent atomic.Int64
	for i := 0; i < actors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent.Add(int64(campaign.RunActor(campaign.ActorSpec{
				Kind:        campaign.ActorHonest,
				CampaignID:  fmt.Sprintf("camp-%d", i),
				Impressions: impressions,
			}, simrand.New(seed), sink, nil)))
		}(i)
	}
	wg.Wait()
	if sink.Failed() != 0 {
		t.Fatalf("load not clean: %d of %d beacons failed delivery", sink.Failed(), sent.Load())
	}
	return int(sent.Load())
}
