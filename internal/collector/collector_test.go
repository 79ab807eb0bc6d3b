package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/detect"
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

// A snapshot is built from the WAL, not from the store, so a beacon the
// chain refused — the async queue was full — is not brought back by a
// restart even when a later, accepted beacon makes the parting snapshot
// write. (The store still applied the refused request before the queue
// refused it, so it counts until the restart: the store-first order is
// a separate fault.)
func TestSnapshotBringsBackNoRefusedBeacon(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.WALDir, cfg.QueueCap = t.TempDir(), 8
	stack, url, shutdown := collectortest.Boot(t, cfg)

	var refused []beacon.Event
	for i := 0; i < 16; i++ {
		refused = append(refused, beacon.Event{ImpressionID: fmt.Sprintf("refused-%d", i), CampaignID: "c",
			Type: beacon.EventServed, At: time.Unix(1546300800, 0).UTC()})
	}
	post := func(events []beacon.Event) int {
		resp, err := http.Post(url+"/v1/events", beacon.BinaryContentType, bytes.NewReader(beacon.AppendBinaryEvents(nil, events)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(refused); code != http.StatusUnprocessableEntity || stack.Store.Len() != 16 {
		t.Fatalf("16 events into a queue of 8: status %d with %d events in the store, want 422 and 16", code, stack.Store.Len())
	}
	accepted := refused[0]
	accepted.ImpressionID = "accepted"
	if code := post([]beacon.Event{accepted}); code != http.StatusAccepted {
		t.Fatalf("one event: status %d, want 202", code)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	restored := beacon.NewStore()
	rec, err := beacon.ReplayWALDir(cfg.WALDir, restored)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotIndex == 0 || restored.Len() != 1 {
		t.Fatalf("restart restored %d events, want the one accepted, from the parting snapshot (%+v)", restored.Len(), rec)
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

// -report-max-open bounds the detector too: it scores the aggregator's
// records, so past the cap their one pass holds few impressions while
// the score row keeps every event.
func TestReportMaxOpenCapsTheDetector(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.ReportMaxOpen, cfg.ReportSweepEvery, cfg.Detect = 64, 5*time.Millisecond, true
	stack, url, _ := collectortest.Boot(t, cfg)
	if resp := post(t, url, beacon.BinaryContentType, batchBody(1000)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	// The cap is enforced per shard: one straggler per shard at most.
	if open := stack.Aggregate.OpenImpressions(); open > 64+cfg.IngestShards || stack.Aggregate.PressureEvicted() == 0 {
		t.Fatalf("aggregate holds %d open impressions under -report-max-open 64 (%d pressure-evicted)", open, stack.Aggregate.PressureEvicted())
	}
	if rows := stack.Detect.Snapshot().Rows; len(rows) != 1 || rows[0].Events != 1000 {
		t.Fatalf("fraud rows %+v, want one that counts the 1000 events", rows)
	}
}

// zipfCampaigns draws impressions over n zipf(1.1)-ranked campaigns as
// the benchmark's report_under_ingest does: a served event and the tag's
// loaded, then in-view with probability 0.6 and out-of-view after it with
// probability 0.5. Every 64 events are one request body.
func zipfCampaigns(rng *rand.Rand, prefix string, n, impressions int) [][]byte {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 1.1)
		cdf[k] = sum
	}
	base := time.Unix(1546300800, 0).UTC()
	var events []beacon.Event
	for imp := 0; imp < impressions; imp++ {
		at := base.Add(time.Duration(imp) * 20 * time.Millisecond)
		ev := beacon.Event{
			ImpressionID: fmt.Sprintf("%s-imp-%d", prefix, imp),
			CampaignID:   fmt.Sprintf("%s-%d", prefix, sort.SearchFloat64s(cdf, rng.Float64()*sum)+1),
			Type:         beacon.EventServed, At: at, Meta: beacon.Meta{Format: "display"},
		}
		events = append(events, ev)
		ev.Source, ev.Type, ev.At = beacon.SourceQTag, beacon.EventLoaded, at.Add(200*time.Millisecond)
		events = append(events, ev)
		if rng.Float64() < 0.6 {
			ev.Type, ev.At = beacon.EventInView, ev.At.Add(1500*time.Millisecond)
			events = append(events, ev)
			if rng.Float64() < 0.5 {
				ev.Type, ev.At = beacon.EventOutOfView, ev.At.Add(2*time.Second)
				events = append(events, ev)
			}
		}
	}
	var bodies [][]byte
	for len(events) > 0 {
		n := min(64, len(events))
		bodies = append(bodies, beacon.AppendBinaryEvents(nil, events[:n]))
		events = events[n:]
	}
	return bodies
}

// fraudRows is /report's fraud rows by campaign and solution.
func fraudRows(t *testing.T, rep *report.ViewabilityReport) map[[2]string]detect.ScoreRow {
	t.Helper()
	if rep.Fraud == nil {
		t.Fatal("/report has no fraud section under -detect")
	}
	rows := map[[2]string]detect.ScoreRow{}
	for _, r := range rep.Fraud.Rows {
		rows[[2]string{r.CampaignID, r.Source}] = r
	}
	return rows
}

// At report_under_ingest's shape — 5 000 zipf-ranked campaigns, a served
// event and the tag's beacons per impression, one request in ten sent
// again — /report's fraud section holds a row for every campaign ×
// solution its campaigns section counts (dsp for the served events), and
// a campaign's rows stay as they are while 5 000 other campaigns take
// traffic: none is dropped, none starts again from zero.
func TestFraudRowsCoverEveryCampaign(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.Detect = true
	_, url, _ := collectortest.Boot(t, cfg)
	rng := rand.New(rand.NewPCG(1, 2))
	send := func(bodies [][]byte) {
		for _, body := range bodies {
			sends := 1
			if rng.IntN(10) == 0 {
				sends = 2 // a re-send: every event of it a duplicate
			}
			for ; sends > 0; sends-- {
				if resp := post(t, url, beacon.BinaryContentType, body); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("ingest: status %d", resp.StatusCode)
				}
			}
		}
	}
	cover := func(stage string) map[[2]string]detect.ScoreRow {
		t.Helper()
		var rep report.ViewabilityReport
		getJSON(t, url+"/report", &rep)
		want := map[[2]string]bool{}
		for _, r := range rep.Campaigns.Rows {
			if r.Served > 0 {
				want[[2]string{r.CampaignID, detect.SourceDSP}] = true
			}
			for src, c := range r.Sources {
				if c.Measured+c.Viewed > 0 {
					want[[2]string{r.CampaignID, src}] = true
				}
			}
		}
		got := fraudRows(t, &rep)
		missing := 0
		for k := range want {
			if _, ok := got[k]; !ok {
				missing++
			}
		}
		if missing > 0 || len(got) != len(want) {
			t.Fatalf("%s: the campaigns section counts %d campaign × solution rows, the fraud section holds %d and misses %d of them",
				stage, len(want), len(got), missing)
		}
		return got
	}

	send(zipfCampaigns(rng, "camp", 5000, 30_000))
	before := cover("5 000 zipf campaigns")
	if len(before) <= 4096 {
		t.Fatalf("fixture holds %d fraud rows, want report_under_ingest's scale: more than 4 096", len(before))
	}
	dups := int64(0)
	for _, r := range before {
		dups += r.Dups
	}
	if dups == 0 {
		t.Fatal("no re-sent request reached the duplicate hook")
	}
	send(zipfCampaigns(rng, "other", 5000, 15_000))
	after := cover("5 000 other campaigns later")
	for k, was := range before {
		if now := after[k]; !reflect.DeepEqual(now, was) {
			t.Fatalf("%s/%s moved on traffic to other campaigns:\n was %+v\n now %+v", k[0], k[1], was, now)
		}
	}
}

// -report-ttl empties the observers' one pass; the score rows keep their
// counts.
func TestReportTTLEmptiesBothObservers(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.ReportTTL, cfg.ReportSweepEvery, cfg.Detect = time.Millisecond, 5*time.Millisecond, true
	stack, url, _ := collectortest.Boot(t, cfg)
	if resp := post(t, url, beacon.BinaryContentType, batchBody(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stack.Aggregate.OpenImpressions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("aggregate holds %d open impressions under -report-ttl 1ms: the sweep never emptied them",
				stack.Aggregate.OpenImpressions())
		}
		time.Sleep(time.Millisecond)
	}
	if got := stack.Aggregate.Evicted(); got != 8 {
		t.Fatalf("the sweep evicted %d impressions, want the 8 sent", got)
	}
	if rows := stack.Detect.Snapshot().Rows; len(rows) != 1 || rows[0].Events != 8 {
		t.Fatalf("fraud rows %+v, want one that still counts the 8 events", rows)
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

// TestProfileAdmittedBesideIngestAtTheFloor: with the adaptive limit at
// its floor of 4 the debug class's share is one request, and an ingest
// POST held in flight must not take it — a CPU profile of a busy server
// is what the profile endpoint is for.
func TestProfileAdmittedBesideIngestAtTheFloor(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.Pprof = true
	cfg.AdmissionMinInflight, cfg.AdmissionMaxInflight = 4, 4
	stack, url, _ := collectortest.Boot(t, cfg)

	body, hold := io.Pipe()
	defer hold.CloseWithError(io.ErrUnexpectedEOF)
	posted := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/events", beacon.BinaryContentType, body)
		if err != nil {
			posted <- 0
			return
		}
		resp.Body.Close()
		posted <- resp.StatusCode
	}()
	if _, err := hold.Write(batchBody(4)[:8]); err != nil { // the handler is reading the body
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); stack.Admission.Limiter().Inflight() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the ingest POST never held a slot: %d in flight", stack.Admission.Limiter().Inflight())
		}
	}
	resp, err := http.Get(url + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a profile beside one ingest POST at the limit's floor: status %d, want 200", resp.StatusCode)
	}
	hold.CloseWithError(io.ErrUnexpectedEOF)
	if code := <-posted; code == http.StatusAccepted {
		t.Fatal("the held POST was accepted with half a body")
	}
}
