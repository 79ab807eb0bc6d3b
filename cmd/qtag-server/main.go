// Command qtag-server runs the Q-Tag beacon collection server — the
// "monitoring server" of the paper's §3 — as a standalone HTTP service.
//
// Endpoints:
//
//	POST /v1/events               ingest one event or a JSON array
//	GET  /v1/stats                global measured/viewability rates
//	GET  /v1/campaigns/{id}/stats per-campaign rates
//	GET  /report                  streaming campaign viewability report
//	                              (JSON; ?format=prom for Prometheus text)
//	GET  /metrics                 Prometheus text-format metrics
//	GET  /healthz                 liveness (200 from the moment the
//	                              socket binds, including during WAL
//	                              boot replay)
//	GET  /readyz                  readiness (503 during boot replay and
//	                              while the handoff backlog is high)
//	GET  /debug/pprof/*           profiling (only with -pprof)
//	GET  /debug/traces            recent distributed traces (only with
//	                              -trace-sample > 0); ?trace=<id> for one
//	                              trace's full span tree, else summaries
//	                              filtered by ?min_ms= ?error=1 ?campaign=
//
// Usage:
//
//	qtag-server [-addr :8640] [-log-every 30s]
//	            [-ingest-shards 16] [-max-body-bytes 4194304]
//	            [-wal-dir beacons.wal] [-wal-segment-bytes 8388608]
//	            [-fsync batch] [-fsync-every 1s] [-snapshot-every 1m]
//	            [-group-commit] [-group-commit-max-batch 256]
//	            [-group-commit-max-wait 0] [-durable-sync]
//	            [-journal beacons.jsonl]
//	            [-shed-pending 10000] [-retry-after 2s]
//	            [-admission] [-admission-min-inflight 0]
//	            [-admission-max-inflight 0] [-admission-recovery-hold 2s]
//	            [-disk-low-bytes 0] [-disk-shed-bytes 0]
//	            [-disk-readonly-bytes 0] [-disk-check-every 2s]
//	            [-report-ttl 15m] [-report-sweep-every 1m]
//	            [-report-window 1m] [-report-windows 60]
//	            [-report-max-open 0]
//	            [-detect] [-detect-ttl 15m] [-detect-max-open 0]
//	            [-detect-flag-threshold 0.5]
//	            [-node-id n0] [-peers n1=http://...,n2=http://...]
//	            [-handoff-dir hints] [-probe-every 1s]
//	            [-ready-hint-backlog 10000]
//	            [-trace-sample 0.01] [-trace-buffer 4096]
//	            [-slow-request 250ms] [-access-log]
//	            [-metrics-exemplars]
//	            [-log-level info] [-pprof]
//
// Distributed tracing (-trace-sample > 0) propagates W3C traceparent
// context across every hop a beacon takes — ingest, peer forwards,
// hinted handoff and its drain replay, federated report fan-outs — and
// retains completed spans in a bounded in-memory ring served by
// GET /debug/traces. Sampling is head-based at the trace root; errored
// spans are always recorded. -slow-request and -access-log add request
// log lines carrying the trace id (cluster health probes are excluded),
// and -metrics-exemplars attaches trace-id exemplars to ingest latency
// histogram buckets in /metrics. See DESIGN.md §13.
//
// Cluster mode (-peers, with -node-id and -handoff-dir) runs several
// qtag-servers as one coordinator-free cluster: a consistent-hash ring
// over impression IDs names each beacon's owner node, non-owners
// forward, and unreachable owners degrade to durable hinted handoff
// replayed on recovery. GET /report?federated=1 merges every reachable
// node's snapshot and names unreachable ones in "degraded". See
// DESIGN.md §12.
//
// GET /report serves per-campaign × per-format viewed / not-viewed /
// not-measured splits, viewability rates and in-view dwell histograms
// from streaming accumulators updated at ingest time — it never scans
// the raw event store. The accumulators are fed by the store's
// first-seen-event hook, so they inherit ingest idempotency and are
// rebuilt deterministically by the WAL replay on boot. Per-impression
// working state is evicted after -report-ttl idle time (sweep cadence
// -report-sweep-every) so report memory stays bounded under unbounded
// traffic; campaign totals are never evicted.
//
// Fraud detection (-detect) attaches the streaming anomaly layer of
// internal/detect to the same store hooks that feed the aggregates:
// per-campaign × source fraud scores (beacon-rate anomalies, impossible
// dwell histograms, lifecycle sequencing violations, duplicate floods,
// geometry anomalies) appear in the "fraud" object of GET /report and
// as qtag_detect_* metrics. The detector sees duplicate submissions via
// the store's duplicate hook and is rebuilt by WAL boot replay exactly
// like the aggregates — the WAL journals every accepted submission,
// duplicates included. (WAL snapshots hold the deduplicated store
// state, so duplicate counts older than the newest snapshot are
// compacted away on restart; see DESIGN.md §15.) Its per-impression
// state shares the report
// sweeper cadence; -detect-ttl and -detect-max-open bound its memory
// the way -report-ttl / -report-max-open bound the aggregates. See
// DESIGN.md §15 for the threat model.
//
// The in-memory store is sharded by impression-id hash (-ingest-shards,
// rounded to a power of two) so concurrent ingestion contends per shard,
// not on one lock. Ingested events reach the store synchronously;
// durability is asynchronous by default: a store-and-forward queue
// drains them through a circuit breaker into the journal (or discards
// them when neither -wal-dir nor -journal is set), so /metrics always
// exposes the same queue/breaker/flush-latency series regardless of
// configuration. -durable-sync instead puts the WAL on the request path:
// a POST is acknowledged only once its events are journaled (fsynced,
// under -fsync always) — combine with -group-commit, which coalesces
// concurrent appends into one write + one fsync per group so the
// per-request durability cost is amortized instead of serialized.
//
// -wal-dir selects the crash-safe durability backend: a segmented,
// checksummed write-ahead journal (see internal/wal) recovered on boot —
// torn tails truncated, corrupted records quarantined, the newest valid
// snapshot restored first — with periodic snapshot + compaction bounding
// disk use. -journal keeps the legacy single-file JSONL journal; the two
// are mutually exclusive. A full disk never crashes the server: appends
// fail into the circuit breaker, ingestion keeps running from memory,
// and the qtag_wal_disk_full gauge raises the alarm.
//
// Overload control (-admission, on by default) guards every request
// behind an adaptive concurrency limiter: a gradient controller tracks
// observed ingest latency against its moving minimum and shrinks the
// in-flight limit when the node slows down, instead of waiting for a
// static backlog threshold to trip. Requests are classified — live
// ingest > hinted-handoff drain replays > federated /report fan-outs >
// /debug endpoints — and lower classes are shed first (503 +
// Retry-After), so a drain storm after a partition heals can never
// starve fresh beacons. Clients may stamp X-Qtag-Budget-Ms with their
// remaining deadline; requests that cannot finish in budget are
// rejected with 408 before any WAL append. -shed-pending remains the
// hard backstop on the unflushed backlog, and the -disk-*-bytes
// watermarks degrade the node as WAL disk space runs out: low relaxes
// fsync to batch, shed stops new ingest, read-only refuses all writes.
// Degraded modes surface on /readyz (503 while browned-out/read-only)
// and /healthz, and as qtag_admission_* / qtag_watermark_* metrics.
// -admission=false restores the legacy static -shed-pending guard
// alone. See DESIGN.md §14.
//
// With -admission=false and -shed-pending, the server sheds
// ingestion (503 + Retry-After) while the unflushed backlog exceeds the
// threshold, and /healthz reports the shed count and backlog. On
// SIGINT/SIGTERM the HTTP server drains, the queue flushes into the
// journal, a final snapshot is taken (WAL mode), then the journal is
// fsynced and closed before the final summary log line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/analytics"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/version"
	"qtag/internal/wal"
)

// parseLogLevel maps the -log-level flag onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	return lvl, lvl.UnmarshalText([]byte(s))
}

// parsePeers parses the -peers flag: "id=url,id=url". IDs must be
// unique and URLs non-empty.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q; want id=url", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = url
	}
	return peers, nil
}

// handlerSwap atomically swaps the live handler: the boot handler
// (liveness yes, readiness no) serves while WAL replay runs, then the
// full stack takes over. This is what splits liveness from readiness at
// boot — the process answers /healthz the instant the socket binds,
// but /readyz stays 503 until recovery completes.
type handlerSwap struct{ v atomic.Value }

func (h *handlerSwap) Set(next http.Handler) { h.v.Store(&next) }
func (h *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*h.v.Load().(*http.Handler)).ServeHTTP(w, r)
}

// bootHandler answers probes during WAL boot replay: alive, not ready,
// everything else 503 with Retry-After.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	writeStatus := func(w http.ResponseWriter, code int, body map[string]string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(body)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusOK, map[string]string{"status": "booting"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unready", "reason": "wal boot replay in progress",
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeStatus(w, http.StatusServiceUnavailable, map[string]string{
			"error": "booting: wal replay in progress",
		})
	})
	return mux
}

func main() {
	addr := flag.String("addr", ":8640", "listen address")
	logEvery := flag.Duration("log-every", 30*time.Second, "interval between stats log lines (0 disables)")
	journalPath := flag.String("journal", "", "JSONL journal file for durability (replayed on startup)")
	walDir := flag.String("wal-dir", "", "segmented write-ahead journal directory (crash-safe durability; excludes -journal)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 8<<20, "rotate WAL segments at this size")
	fsyncMode := flag.String("fsync", "batch", "WAL fsync policy: always, batch or interval")
	fsyncEvery := flag.Duration("fsync-every", time.Second, "fsync period for -fsync interval")
	snapshotEvery := flag.Duration("snapshot-every", time.Minute, "snapshot + compaction cadence for -wal-dir (0 disables)")
	ingestShards := flag.Int("ingest-shards", beacon.DefaultStoreShards, "store shard count (rounded up to a power of two)")
	maxBodyBytes := flag.Int64("max-body-bytes", beacon.DefaultMaxBodyBytes, "reject POST /v1/events bodies larger than this with 413")
	groupCommit := flag.Bool("group-commit", true, "coalesce concurrent WAL appends into shared fsyncs")
	gcMaxBatch := flag.Int("group-commit-max-batch", 256, "max records per WAL group commit")
	gcMaxWait := flag.Duration("group-commit-max-wait", 0, "hold small commit groups open this long to let more callers join")
	durableSync := flag.Bool("durable-sync", false, "acknowledge ingestion only after events are journaled (requires -wal-dir)")
	statsKey := flag.String("stats-key", "", "operator bearer token protecting the stats endpoints (empty = open)")
	ingestRate := flag.Float64("ingest-rate", 0, "per-client ingestion rate limit in req/s (0 = unlimited)")
	ingestBurst := flag.Float64("ingest-burst", 50, "per-client ingestion burst")
	shedPending := flag.Int("shed-pending", 0, "shed ingestion with 503 when this many journal events await flush (0 = disabled; the hard backstop behind -admission)")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "Retry-After hint on shed responses")
	admissionOn := flag.Bool("admission", true, "adaptive admission control: gradient concurrency limiter, priority classes and degraded modes (false restores the legacy static -shed-pending guard)")
	admMinInflight := flag.Int("admission-min-inflight", 0, "adaptive concurrency limit floor (0 = package default)")
	admMaxInflight := flag.Int("admission-max-inflight", 0, "adaptive concurrency limit ceiling (0 = package default)")
	admRecoveryHold := flag.Duration("admission-recovery-hold", 2*time.Second, "calm period before a browned-out node reports healthy again")
	diskLowBytes := flag.Int64("disk-low-bytes", 0, "WAL-disk low watermark: relax fsync to batch below this free space (0 disables; needs -wal-dir)")
	diskShedBytes := flag.Int64("disk-shed-bytes", 0, "WAL-disk shed watermark: stop admitting new ingest below this free space (0 disables)")
	diskReadOnlyBytes := flag.Int64("disk-readonly-bytes", 0, "WAL-disk read-only watermark: refuse all writes below this free space (0 disables)")
	diskCheckEvery := flag.Duration("disk-check-every", 2*time.Second, "free-space probe cadence for the disk watermarks")
	reportMaxOpen := flag.Int("report-max-open", 0, "cap open per-impression aggregation states; past it the coldest is evicted, totals frozen (0 = unbounded)")
	queueCap := flag.Int("queue-cap", 4096, "durability queue capacity (events)")
	reportTTL := flag.Duration("report-ttl", 15*time.Minute, "evict idle per-impression aggregation state after this long (<0 disables)")
	reportSweep := flag.Duration("report-sweep-every", time.Minute, "aggregation eviction sweep cadence (0 disables)")
	reportWindow := flag.Duration("report-window", time.Minute, "rollup window width on GET /report")
	reportWindows := flag.Int("report-windows", 60, "rollup windows retained on GET /report")
	detectOn := flag.Bool("detect", false, "streaming fraud detection: per-campaign anomaly scores on GET /report and qtag_detect_* metrics")
	detectTTL := flag.Duration("detect-ttl", 15*time.Minute, "evict idle per-impression detection state after this long (<0 disables; needs -detect)")
	detectMaxOpen := flag.Int("detect-max-open", 0, "cap open per-impression detection states; past it the coldest is evicted (0 = unbounded)")
	detectFlagThreshold := flag.Float64("detect-flag-threshold", 0, "composite score at which a campaign is flagged fraudulent (0 = package default)")
	logLevel := flag.String("log-level", "info", "log level (debug, info, warn, error)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	nodeID := flag.String("node-id", "", "this node's cluster id (cluster mode; requires -peers)")
	peersFlag := flag.String("peers", "", "cluster peers as id=url,id=url (enables cluster mode)")
	handoffDir := flag.String("handoff-dir", "", "hinted-handoff journal directory (required in cluster mode)")
	probeEvery := flag.Duration("probe-every", time.Second, "peer health probe interval (cluster mode)")
	readyBacklog := flag.Int64("ready-hint-backlog", 10000, "report unready when the handoff backlog exceeds this (0 disables)")
	binaryBeacons := flag.Bool("binary-beacons", true, "forward peer-owned beacons (and hint-drain replays) with the compact binary codec; falls back to JSON automatically against pre-binary peers")
	traceSample := flag.Float64("trace-sample", 0, "head sampling rate for distributed tracing in [0,1] (0 disables; errored spans always recorded)")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultSpanBuffer, "completed spans retained in the in-memory ring behind /debug/traces")
	slowRequest := flag.Duration("slow-request", 0, "log requests slower than this, with their trace id (0 disables)")
	accessLog := flag.Bool("access-log", false, "log every request: method, path, status, bytes, duration, trace id")
	metricsExemplars := flag.Bool("metrics-exemplars", false, "attach OpenMetrics trace-id exemplars to /metrics histogram buckets")
	flag.Parse()

	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	if *walDir != "" && *journalPath != "" {
		slog.Error("-wal-dir and -journal are mutually exclusive; pick one durability backend")
		os.Exit(2)
	}
	if *durableSync && *walDir == "" {
		slog.Error("-durable-sync requires -wal-dir (synchronous durability needs a crash-safe journal)")
		os.Exit(2)
	}
	if *traceSample < 0 || *traceSample > 1 {
		slog.Error("-trace-sample must be in [0,1]", "value", *traceSample)
		os.Exit(2)
	}
	var peers map[string]string
	if *peersFlag != "" {
		var perr error
		peers, perr = parsePeers(*peersFlag)
		if perr != nil {
			slog.Error("bad -peers", "err", perr)
			os.Exit(2)
		}
		if *nodeID == "" {
			slog.Error("-peers requires -node-id")
			os.Exit(2)
		}
		if *handoffDir == "" {
			slog.Error("-peers requires -handoff-dir (hinted handoff needs a durable journal)")
			os.Exit(2)
		}
		if _, clash := peers[*nodeID]; clash {
			slog.Error("-peers must not contain this node's own -node-id", "node_id", *nodeID)
			os.Exit(2)
		}
	}

	// The shutdown context exists before anything else so it can be
	// threaded into every retrying client (forwarders abort their
	// backoff schedules the moment SIGTERM lands) and so boot replay
	// itself is interruptible.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind and serve immediately: the boot handler answers liveness from
	// the first instant while /readyz stays 503 until WAL replay (below)
	// completes and the real stack is swapped in. Orchestrators can tell
	// "slow boot" from "dead process" during long recoveries.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		slog.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	swap := &handlerSwap{}
	swap.Set(bootHandler())
	httpServer := &http.Server{Handler: swap, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()

	store := beacon.NewStoreWithShards(*ingestShards)
	// The streaming aggregation layer observes every first-seen event the
	// store accepts. It must attach before WAL/journal replay below so
	// boot recovery rebuilds the /report accumulators too.
	agg := aggregate.New(aggregate.Options{
		Shards:     *ingestShards,
		TTL:        *reportTTL,
		Window:     *reportWindow,
		MaxWindows: *reportWindows,
		MaxOpen:    *reportMaxOpen,
	})
	store.AddObserver(agg.Observe)
	// The fraud layer hooks both observer seams — first-seen events and
	// duplicate submissions — and, like the aggregates, must attach
	// before WAL replay so boot recovery rebuilds its scores.
	var det *detect.Detector
	if *detectOn {
		det = detect.New(detect.Options{
			Shards:        *ingestShards,
			TTL:           *detectTTL,
			MaxOpen:       *detectMaxOpen,
			FlagThreshold: *detectFlagThreshold,
		})
		store.AddObserver(det.Observe)
		store.AddDupObserver(det.ObserveDup)
	}
	var wj *beacon.WALJournal
	if *walDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			logger.Error("bad -fsync", "value", *fsyncMode, "err", err)
			os.Exit(2)
		}
		var rec beacon.DurableRecovery
		wj, rec, err = beacon.OpenDurable(wal.Options{
			Dir:                 *walDir,
			SegmentBytes:        *walSegmentBytes,
			Fsync:               policy,
			FsyncEvery:          *fsyncEvery,
			GroupCommit:         *groupCommit,
			GroupCommitMaxBatch: *gcMaxBatch,
			GroupCommitMaxWait:  *gcMaxWait,
		}, store)
		if err != nil {
			logger.Error("wal recovery", "dir", *walDir, "err", err)
			os.Exit(1)
		}
		logger.Info("wal recovered",
			"dir", *walDir,
			"segments", rec.Segments,
			"snapshot_restored", rec.SnapshotRestored,
			"replayed", rec.Replayed,
			"skipped", rec.ReplaySkipped,
			"quarantined", rec.Quarantined,
			"corrupt_snapshots", rec.CorruptSnapshots,
			"torn_tail", rec.TornTail,
			"duration", rec.Duration)
		defer wj.Close()
	}
	var journal *beacon.Journal
	if *journalPath != "" {
		// Replay an existing journal, then append to it. Idempotent
		// ingestion makes restarts safe.
		if f, err := os.Open(*journalPath); err == nil {
			st, rerr := beacon.ReplayJournal(f, store)
			f.Close()
			if rerr != nil {
				logger.Error("replay journal", "err", rerr)
				os.Exit(1)
			}
			logger.Info("journal replayed", "path", *journalPath, "replayed", st.Replayed, "skipped", st.Skipped)
		} else if !errors.Is(err, os.ErrNotExist) {
			logger.Error("open journal", "err", err)
			os.Exit(1)
		}
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("append journal", "err", err)
			os.Exit(1)
		}
		journal = beacon.NewJournal(f)
		defer journal.Close()
	}

	// Durability pipeline: the store ingests synchronously; journal writes
	// drain asynchronously through queue → breaker → journal. Without a
	// journal the terminal sink discards, keeping the metric surface
	// identical either way. -durable-sync bypasses the queue and journals
	// on the request path (breaker still in front, so a dead disk degrades
	// to fast failures instead of hung requests); the idle queue keeps its
	// metric series registered.
	var durable beacon.Sink = beacon.Discard
	switch {
	case wj != nil && *durableSync:
		// On the ack path a request is not a flush: whatever its size it
		// is as durable as -fsync says, one hand-off and one write.
		durable = wj.RequestSink()
	case wj != nil:
		durable = wj
	case journal != nil:
		durable = journal
	}
	breaker := beacon.NewCircuitBreaker(durable, beacon.DefaultBreakerThreshold, 5*time.Second)
	queue := beacon.NewQueueSink(breaker, beacon.QueueOptions{Capacity: *queueCap})
	var sink beacon.Sink
	if *durableSync {
		sink = beacon.Tee(store, breaker)
	} else {
		sink = beacon.Tee(store, queue)
	}
	// Distributed tracing: one tracer feeds every layer (HTTP ingest,
	// cluster routing, federated reports) and records completed spans
	// into a bounded ring behind /debug/traces.
	var tracer *obs.Tracer
	var spanStore *obs.SpanStore
	if *traceSample > 0 {
		traceNode := *nodeID
		if traceNode == "" {
			traceNode = "qtag-server"
		}
		spanStore = obs.NewSpanStore(*traceBuffer)
		tracer = obs.NewTracer(obs.TracerConfig{
			Node:       traceNode,
			SampleRate: *traceSample,
			Store:      spanStore,
		})
	}
	// In cluster mode the routing node slots between the HTTP layer and
	// the local durable chain: owner-local beacons fall through to the
	// chain unchanged; remote-owned ones forward to their owner or
	// degrade to hinted handoff.
	var node *cluster.Node
	if peers != nil {
		node, err = cluster.NewNode(cluster.Config{
			Self:             *nodeID,
			Peers:            peers,
			Local:            sink,
			HandoffDir:       *handoffDir,
			Binary:           *binaryBeacons,
			ProbeEvery:       *probeEvery,
			ReadyHintBacklog: *readyBacklog,
			Tracer:           tracer,
			BaseContext:      func() context.Context { return ctx },
		})
		if err != nil {
			logger.Error("cluster node", "err", err)
			os.Exit(1)
		}
		sink = node
		logger.Info("cluster mode", "node_id", *nodeID, "peers", len(peers), "handoff_dir", *handoffDir)
	}
	// Stamp receive time onto beacons that arrive without one (browsers
	// with broken clocks, legacy pixels). In cluster mode the stamp
	// lands at the first node that sees the beacon, before any forward,
	// so the owner records the original arrival time.
	sink = &beacon.StampSink{Next: sink, Now: time.Now}
	server := beacon.NewServerWithSink(store, sink)
	server.SetMaxBodyBytes(*maxBodyBytes)
	server.Mount("GET /v1/breakdown", analytics.Handler(store))
	server.Mount("GET /v1/timeseries", analytics.Handler(store))
	if node != nil {
		server.Mount("GET /report", obs.TraceMiddleware(tracer, "report",
			cluster.FederatedHandler(agg, cluster.FederationConfig{
				Self:   *nodeID,
				Peers:  peers,
				Tracer: tracer,
			})))
		server.SetReadiness(node.Readiness())
		node.RegisterMetrics(server.Metrics())
		server.AddHealthMetric("hint_backlog", func() int64 { return node.Stats().HintBacklog })
	} else {
		// Fraud scores ride the plain single-node report; the federated
		// merge above stays aggregate-only (scores are per-node state).
		server.Mount("GET /report", obs.TraceMiddleware(tracer, "report", report.HandlerWithDetect(agg, det, nil)))
	}
	if tracer != nil {
		server.SetTracer(tracer)
		spanStore.RegisterMetrics(server.Metrics())
		server.Mount("GET /debug/traces", obs.TracesHandler(spanStore))
		logger.Info("tracing enabled", "sample", *traceSample, "buffer", *traceBuffer)
	}
	if *metricsExemplars {
		server.Metrics().SetExemplars(true)
	}
	obs.RegisterBuildInfo(server.Metrics(), version.Version, *nodeID)
	agg.RegisterMetrics(server.Metrics())
	if det != nil {
		det.RegisterMetrics(server.Metrics())
		logger.Info("fraud detection enabled",
			"ttl", *detectTTL, "max_open", *detectMaxOpen)
	}
	queue.RegisterMetrics(server.Metrics())
	breaker.RegisterMetrics(server.Metrics())
	if journal != nil {
		journal.RegisterMetrics(server.Metrics())
	}
	if wj != nil {
		wj.RegisterMetrics(server.Metrics())
	}
	if *pprofOn {
		server.Mount("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
		server.Mount("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		server.Mount("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		server.Mount("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		server.Mount("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	var handler http.Handler = server
	if *ingestRate > 0 {
		handler = beacon.NewRateLimiter(handler, *ingestRate, *ingestBurst)
	}
	// backlog counts events accepted but not yet durable: the journal's
	// unflushed (or un-fsynced) records plus whatever sits in the queue.
	var backlog func() int
	switch {
	case wj != nil:
		backlog = func() int { return wj.Pending() + queue.Depth() }
	case journal != nil:
		backlog = func() int { return journal.Pending() }
	}
	// shedCount reports total shed requests for the final stats line,
	// whichever guard variant is active.
	var shedCount func() int64
	if *admissionOn {
		acfg := admission.Config{
			Limiter: admission.LimiterConfig{
				MinLimit: *admMinInflight,
				MaxLimit: *admMaxInflight,
			},
			RetryAfter:   *retryAfter,
			RecoveryHold: *admRecoveryHold,
		}
		if backlog != nil && *shedPending > 0 {
			threshold := *shedPending
			acfg.Backstop = func() bool { return backlog() >= threshold }
		}
		if wj != nil && (*diskLowBytes > 0 || *diskShedBytes > 0 || *diskReadOnlyBytes > 0) {
			// Below the low watermark, trade fsync latency for headroom
			// (batch coalesces syncs); restore the configured policy once
			// the disk recovers. The shed/read-only levels feed the
			// controller's mode machine through acfg.Watermark.
			basePolicy := wj.FsyncPolicy()
			wm, err := admission.NewWatermark(admission.WatermarkConfig{
				Dir:           *walDir,
				LowBytes:      *diskLowBytes,
				ShedBytes:     *diskShedBytes,
				ReadOnlyBytes: *diskReadOnlyBytes,
				CheckEvery:    *diskCheckEvery,
				OnChange: func(from, to admission.Level) {
					if to >= admission.LevelLow && from < admission.LevelLow {
						wj.SetFsyncPolicy(wal.FsyncOnBatch)
					} else if to < admission.LevelLow && from >= admission.LevelLow {
						wj.SetFsyncPolicy(basePolicy)
					}
					logger.Warn("wal disk watermark", "from", from, "to", to)
				},
			})
			if err != nil {
				logger.Error("disk watermark", "err", err)
				os.Exit(2)
			}
			wm.Start()
			defer wm.Close()
			wm.RegisterMetrics(server.Metrics())
			acfg.Watermark = wm
		}
		ctrl := admission.NewController(acfg)
		ctrl.RegisterMetrics(server.Metrics())
		server.AddHealthMetric("shed", ctrl.TotalShed)
		server.AddHealthMetric("admission_mode", func() int64 { return int64(ctrl.Mode()) })
		if backlog != nil {
			server.AddHealthMetric("journal_pending", func() int64 { return int64(backlog()) })
		}
		// Readiness composes: the cluster node's own checks (when
		// clustered) first, then the admission mode — a browned-out or
		// read-only node must drop out of the load balancer even if its
		// handoff backlog looks fine.
		var nodeReady func() error
		if node != nil {
			nodeReady = node.Readiness()
		}
		server.SetReadiness(func() error {
			if nodeReady != nil {
				if err := nodeReady(); err != nil {
					return err
				}
			}
			if !ctrl.Ready() {
				return fmt.Errorf("admission: node is %s", ctrl.Mode())
			}
			return nil
		})
		handler = ctrl.Middleware(handler)
		shedCount = ctrl.TotalShed
		logger.Info("admission control enabled",
			"min_inflight", *admMinInflight, "max_inflight", *admMaxInflight,
			"backstop_pending", *shedPending, "recovery_hold", *admRecoveryHold)
	} else if backlog != nil && *shedPending > 0 {
		// Legacy static guard, kept for -admission=false: shed on the
		// journal backlog threshold alone.
		threshold := *shedPending
		guard := beacon.NewOverloadGuard(handler, func() bool {
			return backlog() >= threshold
		}, *retryAfter)
		guard.RegisterMetrics(server.Metrics())
		server.AddHealthMetric("shed", guard.Shed)
		server.AddHealthMetric("journal_pending", func() int64 { return int64(backlog()) })
		handler = guard
		shedCount = guard.Shed
	}
	if wj != nil {
		server.AddHealthMetric("wal_disk_full", func() int64 {
			if wj.DiskFull() {
				return 1
			}
			return 0
		})
	}
	if *statsKey != "" {
		handler = beacon.AuthStats(handler, *statsKey)
	}
	// Access/slow-request logging wraps outermost so it records the final
	// status of every middleware below it. Cluster health probes are
	// excluded by their User-Agent; AccessLog is a no-op pass-through
	// when both switches are off.
	handler = beacon.AccessLog(handler, beacon.AccessLogOptions{
		Logger:        logger,
		LogAll:        *accessLog,
		SlowThreshold: *slowRequest,
	})

	if *logEvery > 0 {
		go func() {
			ticker := time.NewTicker(*logEvery)
			defer ticker.Stop()
			for range ticker.C {
				if journal != nil {
					if err := journal.Flush(); err != nil {
						logger.Warn("journal flush", "err", err)
					}
				}
				if wj != nil {
					// Keep idle streams durable under the batch/interval
					// fsync policies. A full disk degrades (breaker opens,
					// alarm gauge raises) — it must never crash the server.
					if err := wj.Sync(); err != nil {
						logger.Warn("wal sync", "err", err)
					}
				}
				logger.Info("stats",
					"events", store.Len(),
					"accepted", server.Accepted(),
					"rejected", server.Rejected(),
					"campaigns", len(store.CampaignIDs()),
					"queue_depth", queue.Depth())
			}
		}()
	}

	if *reportSweep > 0 && *reportTTL >= 0 {
		go func() {
			ticker := time.NewTicker(*reportSweep)
			defer ticker.Stop()
			for now := range ticker.C {
				if n := agg.Sweep(now); n > 0 {
					logger.Debug("aggregate sweep",
						"evicted", n, "open", agg.OpenImpressions())
				}
				if det != nil {
					if n := det.Sweep(now); n > 0 {
						logger.Debug("detect sweep",
							"evicted", n, "open", det.OpenImpressions())
					}
				}
			}
		}()
	}

	if wj != nil && *snapshotEvery > 0 {
		go func() {
			ticker := time.NewTicker(*snapshotEvery)
			defer ticker.Stop()
			for range ticker.C {
				wrote, err := wj.Snapshot(store)
				if err != nil {
					logger.Warn("wal snapshot", "err", err)
					continue
				}
				if wrote {
					idx, _ := wj.SnapshotInfo()
					logger.Info("wal snapshot", "covers", idx, "segments", wj.WAL().Segments())
				}
			}
		}()
	}

	// Recovery is done and the full stack is assembled: swap out the
	// boot handler. From here /readyz answers from the real server
	// (cluster backlog checks included) and ingest is open.
	if node != nil {
		node.Start()
	}
	swap.Set(handler)
	logger.Info("qtag-server ready", "addr", *addr, "version", version.Version)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
	// Graceful drain, in dependency order: every in-flight request has
	// completed (Shutdown returned), so stop the cluster layer (probe
	// loop halts, in-flight hint drains finish, hint WALs fsync and
	// close — the shutdown context already aborted forwarder retries),
	// then drain the durability queue into the journal, then flush +
	// fsync + close the journal — a SIGTERM must not tear the last
	// beacons. Close is idempotent; the deferred Close becomes a no-op.
	if node != nil {
		if err := node.Close(); err != nil {
			logger.Warn("cluster close", "err", err)
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := queue.Close(drainCtx); err != nil {
		logger.Warn("queue drain", "err", err)
	}
	cancel()
	journalPending := 0
	if journal != nil {
		journalPending = journal.Pending()
		if err := journal.Close(); err != nil {
			logger.Warn("journal close", "err", err)
		}
	}
	if wj != nil {
		// The queue has drained, so the WAL holds everything. Take a
		// parting snapshot (best effort — a full disk must not block
		// shutdown), then fsync and close.
		if *snapshotEvery > 0 {
			if _, err := wj.Snapshot(store); err != nil {
				logger.Warn("final snapshot", "err", err)
			}
		}
		journalPending = wj.Pending()
		if err := wj.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	shed := int64(0)
	if shedCount != nil {
		shed = shedCount()
	}
	qs := queue.Stats()
	logger.Info("final",
		"events", store.Len(),
		"accepted", server.Accepted(),
		"rejected", server.Rejected(),
		"shed", shed,
		"journal_pending_at_close", journalPending,
		"queue_flushed", qs.Flushed,
		"queue_dropped", qs.Dropped)
}
