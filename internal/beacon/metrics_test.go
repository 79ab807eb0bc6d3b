package beacon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qtag/internal/obs"
)

func postEvent(t *testing.T, url string, e Event) {
	t.Helper()
	body, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerMetricsEndpoint wires the qtag-server durability chain (queue
// → breaker → discard) onto a server and checks the scrape exposes every
// family the binary's /metrics promises, with reconciling counts.
func TestServerMetricsEndpoint(t *testing.T) {
	store := NewStore()
	breaker := NewCircuitBreaker(Discard, DefaultBreakerThreshold, time.Second)
	queue := NewQueueSink(breaker, QueueOptions{})
	server := NewServerWithSink(store, Tee(store, queue))
	// Freeze the ingest clock so handler latency observations are exactly
	// zero and the histogram output is deterministic.
	fixed := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	server.SetClock(func() time.Time { return fixed })
	queue.RegisterMetrics(server.Metrics())
	breaker.RegisterMetrics(server.Metrics())

	srv := httptest.NewServer(server)
	defer srv.Close()

	const n = 5
	for i := 0; i < n; i++ {
		postEvent(t, srv.URL, Event{
			ImpressionID: fmt.Sprintf("imp-%d", i), CampaignID: "camp-1",
			Type: EventServed, At: fixed,
		})
	}
	drainQueue(t, queue)

	text := scrape(t, srv.URL)
	for _, family := range []string{
		"qtag_ingest_accepted_total", "qtag_ingest_rejected_total",
		"qtag_ingest_latency_seconds_bucket", "qtag_ingest_latency_seconds_count",
		"qtag_queue_depth", "qtag_queue_enqueued_total", "qtag_queue_flushed_total",
		"qtag_queue_flush_latency_seconds_bucket",
		"qtag_breaker_state", "qtag_breaker_trips_total",
		"qtag_store_events", "qtag_store_closed_impressions",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("scrape missing %s:\n%s", family, text)
		}
	}

	v := server.Metrics().Values()
	if v["qtag_ingest_accepted_total"] != n {
		t.Errorf("accepted = %g, want %d", v["qtag_ingest_accepted_total"], n)
	}
	if v["qtag_queue_enqueued_total"] != n || v["qtag_queue_flushed_total"] != n {
		t.Errorf("queue enqueued=%g flushed=%g, want both %d",
			v["qtag_queue_enqueued_total"], v["qtag_queue_flushed_total"], n)
	}
	if v["qtag_store_events"] != n {
		t.Errorf("store events = %g, want %d", v["qtag_store_events"], n)
	}
	if got := v["qtag_store_closed_impressions"]; got != 0 {
		t.Errorf("store closed impressions = %g, want 0: nothing closes a bare store's", got)
	}
	// Zero-latency clock: every ingest observation lands in the first
	// bucket, and the scrape line is byte-predictable.
	if !strings.Contains(text, `qtag_ingest_latency_seconds_bucket{le="0.0005"} 5`) {
		t.Errorf("frozen-clock latency bucket line missing:\n%s", text)
	}
	if !strings.Contains(text, "qtag_ingest_latency_seconds_sum 0\n") {
		t.Errorf("frozen-clock latency sum must be exactly 0:\n%s", text)
	}
}

// drainQueue waits for the queue's background goroutine to flush
// everything it has accepted.
func drainQueue(t *testing.T, q *QueueSink) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if q.Depth() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue did not drain: depth=%d", q.Depth())
}

// TestServerMetricsScrapeDuringIngest scrapes /metrics continuously while
// events pour in; under -race this proves the collection path does not
// race the hot ingest path.
func TestServerMetricsScrapeDuringIngest(t *testing.T) {
	store := NewStore()
	breaker := NewCircuitBreaker(Discard, DefaultBreakerThreshold, time.Second)
	queue := NewQueueSink(breaker, QueueOptions{})
	server := NewServerWithSink(store, Tee(store, queue))
	queue.RegisterMetrics(server.Metrics())
	breaker.RegisterMetrics(server.Metrics())
	srv := httptest.NewServer(server)
	defer srv.Close()

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				postEvent(t, srv.URL, Event{
					ImpressionID: fmt.Sprintf("imp-%d-%d", w, i), CampaignID: "camp-race",
					Type: EventServed, At: time.Now(),
				})
			}
		}()
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = scrape(t, srv.URL)
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()
	drainQueue(t, queue)

	v := server.Metrics().Values()
	if v["qtag_ingest_accepted_total"] != writers*perWriter {
		t.Fatalf("accepted = %g, want %d", v["qtag_ingest_accepted_total"], writers*perWriter)
	}
	if v["qtag_queue_flushed_total"] != writers*perWriter {
		t.Fatalf("flushed = %g, want %d", v["qtag_queue_flushed_total"], writers*perWriter)
	}
}

// TestAddHealthMetricConcurrent registers health metrics while /healthz
// is being served; under -race this pins the documented guarantee.
func TestAddHealthMetricConcurrent(t *testing.T) {
	server := NewServer(NewStore())
	srv := httptest.NewServer(server)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				server.AddHealthMetric(fmt.Sprintf("extra_%d", w), func() int64 { return int64(i) })
				resp, err := http.Get(srv.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestHTTPSinkDeliveryLatencyMetric checks the wire-delivery histogram
// fills and exports through RegisterMetrics.
func TestHTTPSinkDeliveryLatencyMetric(t *testing.T) {
	store := NewStore()
	collector := httptest.NewServer(NewServer(store))
	defer collector.Close()

	sink := &HTTPSink{BaseURL: collector.URL}
	reg := obs.NewRegistry()
	sink.RegisterMetrics(reg)
	if err := sink.SubmitBatch([]Event{
		{ImpressionID: "i1", CampaignID: "c1", Type: EventServed, At: time.Now()},
		{ImpressionID: "i2", CampaignID: "c1", Type: EventServed, At: time.Now()},
	}); err != nil {
		t.Fatal(err)
	}
	v := reg.Values()
	// Delivered counts successful batch submissions, not events.
	if v["qtag_sink_delivered_total"] != 1 {
		t.Fatalf("delivered = %g, want 1 batch", v["qtag_sink_delivered_total"])
	}
	if v["qtag_delivery_latency_seconds_count"] != 1 {
		t.Fatalf("latency count = %g, want 1 batch observation", v["qtag_delivery_latency_seconds_count"])
	}
	if sink.DeliveryLatency().Sum() <= 0 {
		t.Fatal("delivery latency sum must be positive for a real round trip")
	}
}
