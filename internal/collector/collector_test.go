package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/report"
	"qtag/internal/wal"
)

// The load in these tests is four actors: admission control is on, as
// shipped, and its concurrency floor is 4, so live beacons are never
// shed (a shed beacon is retried after a 2 s Retry-After).
const actors = 4

// replayed rebuilds a store from a closed stack's WAL directory.
func replayed(t *testing.T, dir string) int {
	t.Helper()
	restored := beacon.NewStore()
	if _, err := beacon.ReplayWALDir(dir, restored); err != nil {
		t.Fatal(err)
	}
	return restored.Len()
}

// The sync path (-durable-sync -fsync always -group-commit): every event
// sent over HTTP from several goroutines is accepted, stored and — once
// acknowledged — in the WAL; the group committer did the appending.
func TestSyncPathAcksAreDurable(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.IngestShards, cfg.WALDir = 8, t.TempDir()
	cfg.DurableSync, cfg.Fsync = true, wal.FsyncAlways
	stack, url, shutdown := collectortest.Boot(t, cfg)

	n := collectortest.Drive(t, url, 7, actors, 40)
	if got := stack.Server.Accepted(); got != int64(n) {
		t.Fatalf("accepted %d, want %d", got, n)
	}
	if got := stack.Store.Len(); got != n {
		t.Fatalf("store holds %d events, want %d", got, n)
	}
	if stack.Journal.WAL().GroupCommits() == 0 {
		t.Fatal("load never went through the group committer")
	}
	if stack.Queue.Stats().Enqueued != 0 {
		t.Fatal("the durability queue carried events in sync mode")
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, cfg.WALDir); got != n {
		t.Fatalf("WAL replay restored %d events, want %d", got, n)
	}
}

// The async path, qtag-server's default with a WAL: acks do not wait for
// the journal; Close drains queue → breaker → WAL so nothing is lost.
func TestAsyncPathCloseDrainsTheQueue(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.IngestShards, cfg.WALDir = 4, t.TempDir()
	stack, url, shutdown := collectortest.Boot(t, cfg)

	n := collectortest.Drive(t, url, 11, actors, 20)
	if got, held := stack.Server.Accepted(), stack.Store.Len(); got != int64(n) || held != n {
		t.Fatalf("accepted %d and stored %d, want %d", got, held, n)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if qs := stack.Queue.Stats(); qs.Flushed != int64(n) || qs.Dropped != 0 {
		t.Fatalf("queue flushed %d and dropped %d of %d", qs.Flushed, qs.Dropped, n)
	}
	if got := replayed(t, cfg.WALDir); got != n {
		t.Fatalf("queue drain lost events: replay restored %d, want %d", got, n)
	}
}

// No flags at all: memory only. The queue and breaker still exist and
// export the same series, draining into Discard.
func TestNoWALKeepsTheQueueSeries(t *testing.T) {
	stack, url, shutdown := collectortest.Boot(t, collector.DefaultConfig())
	if stack.Journal != nil {
		t.Fatal("no WAL dir but a journal was opened")
	}
	if got := stack.Store.Shards(); got != beacon.DefaultStoreShards {
		t.Fatalf("default shards = %d, want %d", got, beacon.DefaultStoreShards)
	}
	n := collectortest.Drive(t, url, 3, 2, 10)
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	values := stack.Server.Metrics().Values()
	for _, name := range []string{"qtag_queue_enqueued_total", "qtag_queue_flushed_total"} {
		if got, ok := values[name]; !ok || got != float64(n) {
			t.Errorf("%s = %v (present %v), want %d", name, got, ok, n)
		}
	}
	for _, name := range []string{"qtag_queue_depth", "qtag_queue_dropped_total", "qtag_breaker_state", "qtag_breaker_trips_total"} {
		if _, ok := values[name]; !ok {
			t.Errorf("%s is not exported without a WAL", name)
		}
	}
}

func batchBody(n int) []byte {
	events := make([]beacon.Event, n)
	for i := range events {
		events[i] = beacon.Event{
			ImpressionID: fmt.Sprintf("batch-%03d", i), CampaignID: "camp-batch",
			Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: time.Unix(1500000000+int64(i), 0).UTC(),
		}
	}
	return beacon.AppendBinaryEvents(nil, events)
}

func post(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/events", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// Under -durable-sync the chain the handler holds is batch-capable end
// to end — StampSink, Tee, Store, CircuitBreaker, the journal's request
// face — so a 64-event POST is one hand-off to the WAL, not 64.
func TestDurableSyncRequestIsOneWALHandOff(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.WALDir, cfg.DurableSync = t.TempDir(), true
	stack, url, _ := collectortest.Boot(t, cfg)

	if resp := post(t, url, beacon.BinaryContentType, batchBody(64)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("64-event binary POST: status %d", resp.StatusCode)
	}
	w := stack.Journal.WAL()
	if w.Appended() != 64 || w.GroupCommits() != 1 {
		t.Fatalf("one 64-event request made %d WAL hand-offs for %d records, want 1 for 64",
			w.GroupCommits(), w.Appended())
	}
	if w.Syncs() != 0 {
		t.Fatalf("a request under -fsync batch cost %d fsyncs; it is not a flush boundary", w.Syncs())
	}
}

// -shed-pending is the admission controller's backstop on the real
// stack: with one acked-but-unsynced record and a threshold of one, the
// next beacon is shed with 503 + Retry-After and counted, reads are
// untouched, and ingest resumes once the backlog is synced.
func TestShedPendingBackstop(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.WALDir, cfg.DurableSync = t.TempDir(), true // -fsync batch: a request leaves its records pending
	cfg.ShedPending, cfg.RetryAfter = 1, 3*time.Second
	stack, url, _ := collectortest.Boot(t, cfg)

	if resp := post(t, url, beacon.BinaryContentType, batchBody(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first beacon: status %d", resp.StatusCode)
	}
	resp := post(t, url, beacon.BinaryContentType, batchBody(2))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("beacon behind the backlog: status %d, Retry-After %q; want 503 and 3",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if stack.Admission.TotalShed() != 1 || stack.Store.Len() != 1 {
		t.Fatalf("shed %d, stored %d; want 1 and 1", stack.Admission.TotalShed(), stack.Store.Len())
	}
	r, err := http.Get(url + "/report")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("reads shed under the backstop: status %d", r.StatusCode)
	}
	if err := stack.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	if resp := post(t, url, beacon.BinaryContentType, batchBody(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after the sync cleared the backlog: status %d", resp.StatusCode)
	}
}

// -report-max-open bounds the detector too: it keeps its impressions in
// the aggregator's pass, so past the cap both hold the same few.
func TestReportMaxOpenCapsTheDetector(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.ReportMaxOpen, cfg.ReportSweepEvery, cfg.Detect = 64, 5*time.Millisecond, true
	stack, url, _ := collectortest.Boot(t, cfg)
	if resp := post(t, url, beacon.BinaryContentType, batchBody(1000)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	// The cap is enforced per shard: one straggler per shard at most.
	agg, det := stack.Aggregate.OpenImpressions(), stack.Detect.OpenImpressions()
	if agg > 64+cfg.IngestShards || stack.Aggregate.PressureEvicted() == 0 {
		t.Fatalf("aggregate holds %d open impressions under -report-max-open 64 (%d pressure-evicted)", agg, stack.Aggregate.PressureEvicted())
	}
	if det != agg || stack.Detect.Evicted() != stack.Aggregate.Evicted() {
		t.Fatalf("detector holds %d open impressions and evicted %d; the aggregator %d and %d",
			det, stack.Detect.Evicted(), agg, stack.Aggregate.Evicted())
	}
}

// -report-ttl empties both observers: one sweep of the pass they share.
func TestReportTTLEmptiesBothObservers(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.ReportTTL, cfg.ReportSweepEvery, cfg.Detect = time.Millisecond, 5*time.Millisecond, true
	stack, url, _ := collectortest.Boot(t, cfg)
	if resp := post(t, url, beacon.BinaryContentType, batchBody(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stack.Aggregate.OpenImpressions() != 0 || stack.Detect.OpenImpressions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("aggregate holds %d and detector %d open impressions under -report-ttl 1ms: the sweep never emptied them",
				stack.Aggregate.OpenImpressions(), stack.Detect.OpenImpressions())
		}
		time.Sleep(time.Millisecond)
	}
	if got := stack.Detect.Evicted(); got != 8 {
		t.Fatalf("detector evicted %d impressions, want the 8 sent", got)
	}
}

// One impression that reports three in-view cycles (seq 0, 1 and 2) is
// one viewed impression in GET /report's Table 2 slices, as in its rows:
// both count impressions.
func TestStatsCountImpressionsLikeTheReport(t *testing.T) {
	_, url, _ := collectortest.Boot(t, collector.DefaultConfig())
	at := time.Unix(1500000000, 0).UTC()
	meta := beacon.Meta{OS: "iOS", SiteType: "browser"}
	ev := func(typ beacon.EventType, src beacon.Source, seq int) beacon.Event {
		at = at.Add(1500 * time.Millisecond)
		return beacon.Event{ImpressionID: "imp", CampaignID: "c", Source: src, Type: typ, Seq: seq, At: at, Meta: meta}
	}
	events := []beacon.Event{ev(beacon.EventServed, "", 0), ev(beacon.EventLoaded, beacon.SourceQTag, 0)}
	for seq := 0; seq < 3; seq++ {
		events = append(events, ev(beacon.EventInView, beacon.SourceQTag, seq), ev(beacon.EventOutOfView, beacon.SourceQTag, seq))
	}
	if resp := post(t, url, beacon.BinaryContentType, beacon.AppendBinaryEvents(nil, events)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	var rep report.ViewabilityReport
	getJSON(t, url+"/report", &rep)
	var served, loaded, viewed int64
	for _, r := range rep.Campaigns.Rows {
		served += r.Served
		loaded += r.Sources[string(beacon.SourceQTag)].Measured
		viewed += r.Sources[string(beacon.SourceQTag)].Viewed
	}
	if served != 1 || loaded != 1 || viewed != 1 {
		t.Fatalf("/report rows sum to served %d, measured %d, viewed %d; want 1, 1, 1", served, loaded, viewed)
	}
	one := map[beacon.Source]int64{beacon.SourceQTag: 1}
	want := []aggregate.Slice{{SiteType: "browser", OS: "iOS", Counts: aggregate.Counts{Served: 1, Measured: one, Viewed: one}}}
	if !reflect.DeepEqual(rep.Slices, want) {
		t.Fatalf("/report slices = %+v, want %+v", rep.Slices, want)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// everything is a Config with every optional part switched on: WAL,
// watermarks, detector, tracing, pprof, stats key, access log, and a
// two-node ring whose peer is not there.
func everything(t *testing.T) collector.Config {
	dir := t.TempDir()
	cfg := collector.DefaultConfig()
	cfg.WALDir, cfg.DurableSync = filepath.Join(dir, "wal"), true
	cfg.DiskLowBytes, cfg.DiskCheckEvery = 1, 5*time.Millisecond
	cfg.LogEvery, cfg.ReportSweepEvery, cfg.SnapshotEvery = 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond
	cfg.Detect, cfg.Pprof, cfg.AccessLog, cfg.MetricsExemplars = true, true, true, true
	cfg.TraceSample, cfg.StatsKey = 1, "s3cret"
	cfg.NodeID, cfg.HandoffDir, cfg.ProbeEvery = "a", filepath.Join(dir, "hints"), 5*time.Millisecond
	cfg.Peers = map[string]string{"b": "http://127.0.0.1:1"} // nothing listens there
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.Version = "test"
	return cfg
}

// Open → Start → Close leaves no goroutine behind, with every ticker,
// the watermark poller and the cluster node's loops running in between;
// a second Close is a no-op.
func TestCloseStopsEverythingStartStarted(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := everything(t)
	stack, err := collector.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack.Start()
	req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(batchBody(8)))
	req.Header.Set("Content-Type", beacon.BinaryContentType)
	rec := httptest.NewRecorder()
	stack.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest through Handler(): status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for idx, _ := stack.Journal.SnapshotInfo(); idx == 0; idx, _ = stack.Journal.SnapshotInfo() {
		if time.Now().After(deadline) {
			t.Fatal("the snapshot ticker never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := stack.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := stack.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Open, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The optional routes and middleware are where qtag-server puts them.
func TestOptionalRoutesAndMiddleware(t *testing.T) {
	_, url, _ := collectortest.Boot(t, everything(t))
	if resp := post(t, url, beacon.BinaryContentType, batchBody(4)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest on the full stack: status %d", resp.StatusCode)
	}
	for path, want := range map[string]int{
		"/report":                           http.StatusUnauthorized,
		"/report?key=s3cret":                http.StatusOK,
		"/debug/traces":                     http.StatusUnauthorized,
		"/debug/traces?key=s3cret":          http.StatusOK,
		"/debug/pprof/cmdline":              http.StatusUnauthorized,
		"/debug/pprof/cmdline?key=s3cret":   http.StatusOK,
		"/healthz":                          http.StatusOK,
		"/readyz":                           http.StatusOK,
		"/metrics":                          http.StatusOK,
		"/debug/pprof/nonesuch/":            http.StatusUnauthorized,
		"/debug/pprof/nonesuch/?key=s3cret": http.StatusNotFound,
	} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestValidate(t *testing.T) {
	peers := map[string]string{"b": "http://b"}
	cases := []struct {
		name string
		set  func(*collector.Config)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(*collector.Config) {}, ""},
		{"durable-sync without a WAL", func(c *collector.Config) { c.DurableSync = true }, "-durable-sync requires -wal-dir"},
		{"peers without node-id", func(c *collector.Config) { c.Peers, c.HandoffDir = peers, "h" }, "-peers requires -node-id"},
		{"peers without handoff-dir", func(c *collector.Config) { c.Peers, c.NodeID = peers, "a" }, "-peers requires -handoff-dir"},
		{"peers with self", func(c *collector.Config) { c.Peers, c.NodeID, c.HandoffDir = peers, "b", "h" }, "own -node-id"},
		{"cluster", func(c *collector.Config) { c.Peers, c.NodeID, c.HandoffDir = peers, "a", "h" }, ""},
		{"trace-sample above 1", func(c *collector.Config) { c.TraceSample = 1.5 }, "-trace-sample"},
		{"trace-sample below 0", func(c *collector.Config) { c.TraceSample = -0.1 }, "-trace-sample"},
		{"shed-pending without admission", func(c *collector.Config) { c.Admission, c.ShedPending = false, 100 }, "-shed-pending"},
		{"no admission", func(c *collector.Config) { c.Admission = false }, ""},
		{"shed-pending without a WAL", func(c *collector.Config) { c.ShedPending = 100 }, "-shed-pending requires -wal-dir"},
		{"shed-pending with a WAL", func(c *collector.Config) { c.WALDir, c.ShedPending = "w", 100 }, ""},
		{"disk-low-bytes without a WAL", func(c *collector.Config) { c.DiskLowBytes = 1 }, "-disk-low-bytes, -disk-shed-bytes and -disk-readonly-bytes require -wal-dir"},
		{"disk-shed-bytes without a WAL", func(c *collector.Config) { c.DiskShedBytes = 1 }, "require -wal-dir"},
		{"disk-readonly-bytes without a WAL", func(c *collector.Config) { c.DiskReadOnlyBytes = 1 }, "require -wal-dir"},
		{"disk watermarks without admission", func(c *collector.Config) { c.WALDir, c.Admission, c.DiskShedBytes = "w", false, 1 }, "need -admission"},
		{"disk watermarks with a WAL", func(c *collector.Config) { c.WALDir, c.DiskShedBytes = "w", 1 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := collector.DefaultConfig()
			tc.set(&cfg)
			err := cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid config refused: %v", err)
			case tc.want != "" && (!errors.Is(err, collector.ErrConfig) || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want ErrConfig mentioning %q", err, tc.want)
			}
			if tc.want != "" {
				if _, oerr := collector.Open(cfg); !errors.Is(oerr, collector.ErrConfig) {
					t.Fatalf("Open accepted what Validate refuses: %v", oerr)
				}
			}
		})
	}
	// The one configuration error only Open can see: watermarks out of order.
	cfg := collector.DefaultConfig()
	cfg.WALDir, cfg.DiskLowBytes, cfg.DiskShedBytes = t.TempDir(), 5, 10
	if _, err := collector.Open(cfg); !errors.Is(err, collector.ErrConfig) {
		t.Fatalf("misordered watermarks: %v, want ErrConfig", err)
	}
	// And a failure that is not the operator's flags: the WAL directory is a file.
	cfg = collector.DefaultConfig()
	cfg.WALDir = filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(cfg.WALDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := collector.Open(cfg); err == nil || errors.Is(err, collector.ErrConfig) {
		t.Fatalf("WAL dir is a file: %v, want a runtime error", err)
	}
}
