// Command qtag-server runs the Q-Tag beacon collection server — the
// "monitoring server" of the paper's §3 — as a standalone HTTP service.
//
// Endpoints:
//
//	POST /v1/events               ingest one event, a JSON array or a
//	                              binary batch
//	GET  /report                  the one read route: the streaming
//	                              campaign viewability report and Table
//	                              2's site type × OS slices, counting
//	                              impressions from the one aggregator
//	                              (JSON; ?format=prom for Prometheus
//	                              text; ?federated=1 for the cluster's)
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
// With -stats-key, every route but POST/GET /v1/events, /metrics,
// /healthz and /readyz needs the key.
//
// The stack behind those routes is assembled by internal/collector from
// a collector.Config; this command is the flag table that fills the
// Config (one flag per field — `qtag-server -h` lists them, README has
// the table), the listener, and the signal handling. What the flags turn
// on, and where each is specified:
//
//   - -wal-dir: the segmented, checksummed write-ahead journal, recovered
//     on boot and bounded by snapshot + compaction; -durable-sync puts it
//     on the ack path, -group-commit amortizes its fsyncs; a full disk
//     degrades (breaker, qtag_wal_disk_full), never crashes. DESIGN §9–10.
//   - GET /report: per-campaign × per-format viewed / not-viewed /
//     not-measured splits and the Table 2 slices, from the one
//     aggregator fed at ingest time and rebuilt by WAL replay, memory
//     bounded by -report-ttl; -stats-key guards it and every other
//     route that is not ingest, metrics or a probe. The binary links no
//     simulator package (deps_test.go). DESIGN §11.
//   - -peers (with -node-id, -handoff-dir): a coordinator-free cluster —
//     consistent-hash ring, forwarding, hinted handoff, federated
//     /report?federated=1. DESIGN §12.
//   - -trace-sample: W3C traceparent across every hop, spans behind
//     GET /debug/traces; -slow-request, -access-log, -metrics-exemplars
//     carry the trace id. DESIGN §13.
//   - -admission (on by default): adaptive concurrency limit, priority
//     classes shed lowest first (503 + Retry-After), X-Qtag-Budget-Ms
//     deadlines, -shed-pending as the backlog backstop, -disk-*-bytes
//     watermarks (both need -wal-dir); -admission=false is no overload
//     control at all (and refuses both). DESIGN §14.
//   - -detect: streaming fraud scores in the "fraud" object of GET
//     /report — a cluster node's plain report too, not the federated
//     one — and as qtag_detect_* metrics. DESIGN §15.
//
// On SIGINT/SIGTERM the HTTP server drains, then collector.Stack.Close
// stops the background tickers, flushes the queue into the WAL, takes a
// final snapshot and fsyncs and closes the WAL, before the final summary
// log line. Configuration errors exit 2, runtime failures 1.
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
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"qtag/internal/collector"
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

// options is everything the command line sets: the stack's Config plus
// what only main uses. The three strings are parsed into Config fields
// (and the log level) by parseFlags.
type options struct {
	cfg      collector.Config
	addr     string
	logLevel slog.Level

	level, fsync, peers string
}

// bindFlags is the one table of qtag-server's flags: name, default (from
// collector.DefaultConfig, already in o.cfg) and help. README's flag
// table is checked against it.
func bindFlags(fs *flag.FlagSet, o *options) {
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", ":8640", "listen address")
	fs.DurationVar(&c.LogEvery, "log-every", c.LogEvery, "interval between stats log lines (0 disables)")
	fs.StringVar(&c.WALDir, "wal-dir", c.WALDir, "segmented write-ahead journal directory: the crash-safe durability backend, recovered on startup (empty = no durability)")
	fs.Int64Var(&c.WALSegmentBytes, "wal-segment-bytes", c.WALSegmentBytes, "rotate WAL segments at this size")
	fs.StringVar(&o.fsync, "fsync", "batch", "WAL fsync policy: always, batch or interval")
	fs.DurationVar(&c.FsyncEvery, "fsync-every", c.FsyncEvery, "fsync period for -fsync interval")
	fs.DurationVar(&c.SnapshotEvery, "snapshot-every", c.SnapshotEvery, "snapshot + compaction cadence for -wal-dir (0 disables)")
	fs.IntVar(&c.IngestShards, "ingest-shards", c.IngestShards, "store shard count (rounded up to a power of two)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-bytes", c.MaxBodyBytes, "reject POST /v1/events bodies larger than this with 413")
	fs.BoolVar(&c.GroupCommit, "group-commit", c.GroupCommit, "coalesce concurrent WAL appends into shared fsyncs")
	fs.BoolVar(&c.DurableSync, "durable-sync", c.DurableSync, "acknowledge ingestion only after events are journaled (requires -wal-dir)")
	fs.StringVar(&c.StatsKey, "stats-key", c.StatsKey, "operator bearer token every route needs but ingest, /metrics, /healthz and /readyz (empty = open)")
	fs.IntVar(&c.ShedPending, "shed-pending", c.ShedPending, "the admission controller's hard backstop: shed ingestion with 503 while this many events await durability — WAL records not yet fsynced plus queued events (0 = disabled; needs -wal-dir and -admission)")
	fs.BoolVar(&c.Admission, "admission", c.Admission, "adaptive admission control: gradient concurrency limiter, priority classes and degraded modes (false = no overload control)")
	fs.Int64Var(&c.DiskLowBytes, "disk-low-bytes", c.DiskLowBytes, "WAL-disk low watermark: relax fsync to batch below this free space (0 disables; needs -wal-dir and -admission)")
	fs.Int64Var(&c.DiskShedBytes, "disk-shed-bytes", c.DiskShedBytes, "WAL-disk shed watermark: stop admitting new ingest below this free space (0 disables; needs -wal-dir and -admission)")
	fs.Int64Var(&c.DiskReadOnlyBytes, "disk-readonly-bytes", c.DiskReadOnlyBytes, "WAL-disk read-only watermark: refuse all writes below this free space (0 disables; needs -wal-dir and -admission)")
	fs.IntVar(&c.ReportMaxOpen, "report-max-open", c.ReportMaxOpen, "cap open per-impression aggregation states; past it the coldest is evicted, totals frozen (0 = unbounded)")
	fs.IntVar(&c.QueueCap, "queue-cap", c.QueueCap, "durability queue capacity (events)")
	fs.DurationVar(&c.ReportTTL, "report-ttl", c.ReportTTL, "evict idle per-impression aggregation state after this long (<0 disables)")
	fs.BoolVar(&c.Detect, "detect", c.Detect, "streaming fraud detection: per-campaign anomaly scores on GET /report and qtag_detect_* metrics")
	fs.StringVar(&o.level, "log-level", "info", "log level (debug, info, warn, error)")
	fs.BoolVar(&c.Pprof, "pprof", c.Pprof, "mount net/http/pprof handlers under /debug/pprof/")
	fs.StringVar(&c.NodeID, "node-id", c.NodeID, "this node's cluster id (cluster mode; requires -peers)")
	fs.StringVar(&o.peers, "peers", "", "cluster peers as id=url,id=url (enables cluster mode)")
	fs.StringVar(&c.HandoffDir, "handoff-dir", c.HandoffDir, "hinted-handoff journal directory (required in cluster mode)")
	fs.Int64Var(&c.ReadyHintBacklog, "ready-hint-backlog", c.ReadyHintBacklog, "report unready when the handoff backlog exceeds this (0 disables)")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "head sampling rate for distributed tracing in [0,1] (0 disables; errored spans always recorded)")
	fs.DurationVar(&c.SlowRequest, "slow-request", c.SlowRequest, "log requests slower than this, with their trace id (0 disables)")
	fs.BoolVar(&c.AccessLog, "access-log", c.AccessLog, "log every request: method, path, status, bytes, duration, trace id")
	fs.BoolVar(&c.MetricsExemplars, "metrics-exemplars", c.MetricsExemplars, "attach OpenMetrics trace-id exemplars to /metrics histogram buckets")
}

// parseFlags turns argv into options. Any error is a configuration
// error.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{cfg: collector.DefaultConfig()}
	bindFlags(fs, o)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.logLevel, err = parseLogLevel(o.level); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", o.level, err)
	}
	if o.cfg.Fsync, err = wal.ParseFsyncPolicy(o.fsync); err != nil {
		return nil, fmt.Errorf("bad -fsync: %w", err)
	}
	if o.cfg.Peers, err = parsePeers(o.peers); err != nil {
		return nil, fmt.Errorf("bad -peers: %w", err)
	}
	return o, o.cfg.Validate()
}

func main() {
	o, err := parseFlags(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		slog.Error("configuration", "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))
	slog.SetDefault(logger)

	// The shutdown context exists before anything else so it can be
	// threaded into every retrying client (forwarders abort their
	// backoff schedules the moment SIGTERM lands).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.cfg.Logger = logger
	o.cfg.Version = version.Version
	o.cfg.BaseContext = func() context.Context { return ctx }

	// Bind and serve immediately: the boot handler answers liveness from
	// the first instant while /readyz stays 503 until WAL replay (inside
	// collector.Open) completes and the real stack is swapped in.
	// Orchestrators can tell "slow boot" from "dead process" during long
	// recoveries.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listen", "addr", o.addr, "err", err)
		os.Exit(1)
	}
	swap := &handlerSwap{}
	swap.Set(bootHandler())
	httpServer := &http.Server{Handler: swap, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()

	stack, err := collector.Open(o.cfg)
	if err != nil {
		logger.Error("assemble collector", "err", err)
		if errors.Is(err, collector.ErrConfig) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	// Recovery is done and the full stack is assembled: swap out the
	// boot handler. From here /readyz answers from the real server
	// (cluster backlog checks included) and ingest is open.
	stack.Start()
	swap.Set(stack.Handler())
	logger.Info("qtag-server ready", "addr", o.addr, "version", version.Version)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
		cancel()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
	// Every in-flight request has completed (Shutdown returned): drain.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := stack.Close(drainCtx); err != nil {
		logger.Warn("drain", "err", err)
	}
	cancel()
	shed := int64(0)
	if stack.Admission != nil {
		shed = stack.Admission.TotalShed()
	}
	qs := stack.Queue.Stats()
	logger.Info("final",
		"events", stack.Store.Len(),
		"accepted", stack.Server.Accepted(),
		"rejected", stack.Server.Rejected(),
		"shed", shed,
		"journal_pending_at_close", stack.PendingAtClose,
		"queue_flushed", qs.Flushed,
		"queue_dropped", qs.Dropped)
}
