package report_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/report"
)

// readReport fetches GET /report and checks the classification
// partition invariant on the payload: for every row and source,
// viewed + not-viewed + not-measured = impressions. The invariant must
// hold on every response the endpoint ever serves, mid-ingest included.
func readReport(url string) error {
	resp, err := http.Get(url + "/report")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /report: status %d", resp.StatusCode)
	}
	var r report.ViewabilityReport
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("GET /report: decode: %w", err)
	}
	for _, row := range r.Campaigns.Rows {
		for src, c := range row.Sources {
			if c.Viewed+c.NotViewed+c.NotMeasured != row.Impressions {
				return fmt.Errorf("partition broken mid-ingest: %s/%s source %s: %+v of %d",
					row.CampaignID, row.Format, src, c, row.Impressions)
			}
		}
	}
	return nil
}

// TestReportSoakConcurrentReads hammers GET /report (JSON and
// Prometheus) while concurrent clients ingest through the full WAL
// path, then proves the streaming aggregates exactly equal a batch
// recompute over the raw store. Run under -race by make soak, this is
// the read-side counterpart of the ingest soak.
func TestReportSoakConcurrentReads(t *testing.T) {
	// -wal-dir -durable-sync -group-commit under the default -fsync
	// batch, and the default 15m -report-ttl: no eviction during the
	// test, so the final snapshot must be byte-equal to the batch oracle.
	// Admission control stays on, with its floor raised: a report read is
	// admitted while everything in flight is under 35 % of the limit, so
	// ten clients need a limit of 29. At the default floor of 4 the
	// controller sheds the readers and then beacons (503, retried after
	// 2 s) — overload-chaos proves that order; this test is about what a
	// served report says.
	cfg := collector.DefaultConfig()
	cfg.IngestShards, cfg.WALDir, cfg.DurableSync = 8, t.TempDir(), true
	cfg.AdmissionMinInflight = 32
	srv, url, shutdown := collectortest.Boot(t, cfg)
	kept := beacon.Record(srv.Store)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	var readErr atomic.Value
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					err = readReport(url)
				} else {
					var resp *http.Response
					if resp, err = http.Get(url + "/report?format=prom"); err == nil {
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("prom status %d", resp.StatusCode)
						}
						resp.Body.Close()
					}
				}
				if err != nil {
					readErr.Store(err)
					return
				}
				reads.Add(1)
			}
		}(i)
	}

	events := collectortest.Drive(t, url, 23, 6, 90)
	close(stop)
	readers.Wait()
	if got := srv.Server.Accepted(); got != int64(events) {
		t.Fatalf("accepted %d of %d events", got, events)
	}
	if err, _ := readErr.Load().(error); err != nil {
		t.Fatalf("report reader failed: %v", err)
	}
	if reads.Load() == 0 {
		t.Fatal("no report reads completed during ingest")
	}

	streaming := srv.Aggregate.Snapshot()
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	batch := aggregate.Recompute(kept.Events(), aggregate.Options{Shards: 8}).Snapshot()
	if len(streaming.Rows) == 0 {
		t.Fatal("no aggregate rows after load")
	}
	assertSnapshotsEqual(t, streaming, batch)
}

func assertSnapshotsEqual(t *testing.T, got, want aggregate.Snapshot) {
	t.Helper()
	g, err1 := json.Marshal(got)
	w, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v %v", err1, err2)
	}
	if string(g) != string(w) {
		t.Fatalf("streaming != batch recompute\n got: %s\nwant: %s", g, w)
	}
}

// TestReportSoakEvictionBoundsMemory runs the same load against an
// aggressive TTL and proves the open-impression working set drains to
// zero once traffic stops — the memory bound GET /report depends on —
// while the served report keeps satisfying the partition invariant.
func TestReportSoakEvictionBoundsMemory(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.IngestShards = 4
	cfg.ReportTTL, cfg.ReportSweepEvery = 50*time.Millisecond, 10*time.Millisecond
	srv, url, _ := collectortest.Boot(t, cfg)

	collectortest.Drive(t, url, 31, 4, 90)

	deadline := time.Now().Add(5 * time.Second)
	for srv.Aggregate.OpenImpressions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("open impressions stuck at %d after TTL expiry", srv.Aggregate.OpenImpressions())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv.Aggregate.Evicted() == 0 {
		t.Fatal("eviction never ran")
	}
	// Campaign totals survive eviction, and the report stays coherent.
	if err := readReport(url); err != nil {
		t.Fatal(err)
	}
	if rows := srv.Aggregate.Snapshot().Rows; len(rows) == 0 {
		t.Fatal("eviction dropped campaign totals")
	}
}
