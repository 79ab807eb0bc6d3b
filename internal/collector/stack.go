package collector

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/wal"
)

// Stack is one assembled collector. The exported fields are its parts,
// for the caller's log lines and the proof suites' assertions; which are
// nil depends on the Config (noted per field).
type Stack struct {
	Store     *beacon.Store
	Aggregate *aggregate.Aggregator
	Detect    *detect.Detector   // nil without Detect
	Journal   *beacon.WALJournal // nil without WALDir
	Queue     *beacon.QueueSink  // built, and its metrics registered, in DurableSync mode too
	Server    *beacon.Server
	Admission *admission.Controller // nil without Admission
	Node      *cluster.Node         // nil without Peers

	// PendingAtClose is the journal's un-fsynced record count at the
	// moment Close reached it, after the queue drained. Set by Close.
	PendingAtClose int

	cfg       Config
	log       *slog.Logger
	breaker   *beacon.CircuitBreaker
	spans     *obs.SpanStore // nil when TraceSample is 0
	watermark *admission.Watermark
	handler   http.Handler

	stop      chan struct{} // closed by Close: the tickers exit
	tickers   sync.WaitGroup
	closeOnce sync.Once
}

// Open validates cfg, recovers the WAL (when WALDir is set) into a fresh
// store and assembles the stack around it; nothing runs in the
// background until Start. An error wrapping ErrConfig means cfg is
// wrong, any other that the environment failed; either way whatever was
// opened is closed again.
func Open(cfg Config) (_ *Stack, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Stack{cfg: cfg, log: logger, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			_ = s.Close(context.Background())
		}
	}()

	// Observers attach before the WAL replay below, so boot recovery
	// rebuilds the /report accumulators and the fraud scores by the path
	// live ingest feeds them. The detector joins the aggregator's
	// pass: one first-seen observer opens each event's impression once for
	// both, and -report-ttl / -report-max-open bound both.
	s.Store = beacon.NewStoreWithShards(cfg.IngestShards)
	s.Aggregate = aggregate.Attach(s.Store, aggregate.Options{Shards: cfg.IngestShards, TTL: cfg.ReportTTL,
		Window: cfg.ReportWindow, MaxWindows: cfg.ReportWindows, MaxOpen: cfg.ReportMaxOpen})
	if cfg.Detect {
		s.Detect = detect.New(detect.Options{Shards: cfg.IngestShards})
		s.Detect.Join(s.Aggregate.Pass())
		s.Store.AddDupObserver(s.Detect.ObserveDup)
	}
	if cfg.WALDir != "" {
		var rec beacon.DurableRecovery
		s.Journal, rec, err = beacon.OpenDurable(wal.Options{
			Dir:          cfg.WALDir,
			SegmentBytes: cfg.WALSegmentBytes,
			Fsync:        cfg.Fsync,
			FsyncEvery:   cfg.FsyncEvery,
			GroupCommit:  cfg.GroupCommit,
		}, s.Store)
		if err != nil {
			return nil, fmt.Errorf("wal recovery in %s: %w", cfg.WALDir, err)
		}
		logger.Info("wal recovered", "dir", cfg.WALDir, "segments", rec.Segments,
			"snapshot_restored", rec.SnapshotRestored, "replayed", rec.Replayed,
			"skipped", rec.ReplaySkipped, "quarantined", rec.Quarantined,
			"corrupt_snapshots", rec.CorruptSnapshots, "torn_tail", rec.TornTail,
			"duration", rec.Duration)
	}

	// The store ingests synchronously, ahead of the journal in the Tee.
	// Journal writes drain through queue → breaker → journal, or — under
	// DurableSync — go breaker → journal on the request path, so a dead
	// disk is fast failures either way, never hung requests. With no
	// journal the chain ends in Discard, and in sync mode the queue idles:
	// /metrics has the same series whatever the flags.
	var durable beacon.BatchSink = beacon.Discard
	switch {
	case s.Journal != nil && cfg.DurableSync:
		// The request face: one hand-off and one write whatever the
		// request's size, as durable as -fsync says; not a flush boundary.
		durable = s.Journal.RequestSink()
	case s.Journal != nil:
		durable = s.Journal
	}
	s.breaker = beacon.NewCircuitBreaker(durable, beacon.DefaultBreakerThreshold, 5*time.Second)
	s.Queue = beacon.NewQueueSink(s.breaker, beacon.QueueOptions{Capacity: cfg.QueueCap})
	var sink beacon.Sink
	if cfg.DurableSync {
		sink = beacon.Tee(s.Store, s.breaker)
	} else {
		sink = beacon.Tee(s.Store, s.Queue)
	}
	// One tracer for ingest, cluster routing and federated reports.
	var tracer *obs.Tracer
	if cfg.TraceSample > 0 {
		traceNode := cfg.NodeID
		if traceNode == "" {
			traceNode = "qtag-server"
		}
		s.spans = cfg.Test.Spans
		if s.spans == nil {
			s.spans = obs.NewSpanStore(obs.DefaultSpanBuffer)
		}
		tracer = obs.NewTracer(obs.TracerConfig{Node: traceNode, SampleRate: cfg.TraceSample, Store: s.spans})
	}
	// The routing node wraps the local chain: owner-local beacons fall
	// through unchanged, the rest forward or degrade to hinted handoff.
	if len(cfg.Peers) > 0 {
		s.Node, err = cluster.NewNode(cluster.Config{
			Self: cfg.NodeID, Peers: cfg.Peers, Local: sink, HandoffDir: cfg.HandoffDir,
			Binary: true, ProbeEvery: cfg.ProbeEvery, ReadyHintBacklog: cfg.ReadyHintBacklog,
			Tracer: tracer, Transport: cfg.Test.Transport, BaseContext: cfg.BaseContext,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster node: %w", err)
		}
		sink = s.Node
		logger.Info("cluster mode", "node_id", cfg.NodeID, "peers", len(cfg.Peers), "handoff_dir", cfg.HandoffDir)
	}
	// Outermost, so a beacon without a timestamp gets the time of its
	// first arrival in the cluster, before any forward.
	sink = &beacon.StampSink{Next: sink, Now: time.Now}
	s.Server = beacon.NewServerWithSink(s.Store, sink)
	s.Server.SetMaxBodyBytes(cfg.MaxBodyBytes)
	s.mountRoutes(tracer)
	s.registerMetrics()

	s.handler = s.Server
	if cfg.Admission {
		if err := s.admit(); err != nil {
			return nil, err
		}
	}
	// Readiness composes: the cluster node's own checks first, then the
	// admission mode — a browned-out or read-only node must drop out of
	// the load balancer even if its handoff backlog looks fine.
	nodeReady := func() error { return nil }
	if s.Node != nil {
		nodeReady = s.Node.Readiness()
	}
	s.Server.SetReadiness(func() error {
		if err := nodeReady(); err != nil || s.Admission == nil || s.Admission.Ready() {
			return err
		}
		return fmt.Errorf("admission: node is %s", s.Admission.Mode())
	})
	if cfg.StatsKey != "" {
		s.handler = beacon.AuthStats(s.handler, cfg.StatsKey)
	}
	// Outermost, so it logs the status the client got; returns its
	// argument unchanged when both switches are off.
	s.handler = beacon.AccessLog(s.handler, beacon.AccessLogOptions{
		Logger: logger, LogAll: cfg.AccessLog, SlowThreshold: cfg.SlowRequest})
	return s, nil
}

// mountRoutes attaches what beacon.Server does not serve itself.
func (s *Stack) mountRoutes(tracer *obs.Tracer) {
	cfg, srv := s.cfg, s.Server
	// GET /report is the one read route. A cluster node serves its plain
	// report — fraud scores included — as a single node does, and the
	// cluster's under ?federated=1.
	rep := report.HandlerWithDetect(s.Aggregate, s.Detect, nil)
	if s.Node != nil {
		rep = cluster.FederatedHandler(s.Aggregate, rep,
			cluster.FederationConfig{Self: cfg.NodeID, Peers: cfg.Peers, Transport: cfg.Test.Transport, Tracer: tracer})
		node := s.Node
		srv.AddHealthMetric("hint_backlog", func() int64 { return node.Stats().HintBacklog })
	}
	srv.Mount("GET /report", obs.TraceMiddleware(tracer, "report", rep))
	if tracer != nil {
		srv.SetTracer(tracer)
		srv.Mount("GET /debug/traces", obs.TracesHandler(s.spans))
		s.log.Info("tracing enabled", "sample", cfg.TraceSample)
	}
	if cfg.Pprof {
		srv.Mount("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
		srv.Mount("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		srv.Mount("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		srv.Mount("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		srv.Mount("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
		s.log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	if s.Journal != nil {
		wj := s.Journal
		srv.AddHealthMetric("wal_disk_full", func() int64 {
			if wj.DiskFull() {
				return 1
			}
			return 0
		})
	}
}

// registerMetrics exports every part on the server's /metrics registry.
func (s *Stack) registerMetrics() {
	reg := s.Server.Metrics()
	if s.Node != nil {
		s.Node.RegisterMetrics(reg)
	}
	if s.spans != nil {
		s.spans.RegisterMetrics(reg)
	}
	if s.cfg.MetricsExemplars {
		reg.SetExemplars(true)
	}
	obs.RegisterBuildInfo(reg, s.cfg.Version, s.cfg.NodeID)
	s.Aggregate.RegisterMetrics(reg)
	if s.Detect != nil {
		s.Detect.RegisterMetrics(reg)
		s.log.Info("fraud detection enabled")
	}
	s.Queue.RegisterMetrics(reg)
	s.breaker.RegisterMetrics(reg)
	if s.Journal != nil {
		s.Journal.RegisterMetrics(reg)
	}
}

// admit puts the admission controller in front of the handler and makes
// readiness and /healthz follow it.
func (s *Stack) admit() error {
	cfg, wj, queue := s.cfg, s.Journal, s.Queue
	// backlog counts events accepted but not yet durable: the WAL's
	// un-fsynced records plus whatever sits in the queue.
	var backlog func() int
	if wj != nil {
		backlog = func() int { return wj.Pending() + queue.Depth() }
	}
	acfg := admission.Config{
		Limiter:    admission.LimiterConfig{MinLimit: cfg.AdmissionMinInflight, MaxLimit: cfg.AdmissionMaxInflight},
		RetryAfter: cfg.RetryAfter,
	}
	// Validate refuses -shed-pending and the disk watermarks without a WAL.
	if cfg.ShedPending > 0 {
		acfg.Backstop = func() bool { return backlog() >= cfg.ShedPending }
	}
	if cfg.DiskLowBytes > 0 || cfg.DiskShedBytes > 0 || cfg.DiskReadOnlyBytes > 0 {
		// Below the low watermark trade fsync latency for headroom (batch
		// coalesces syncs) and restore the policy when the disk recovers;
		// the shed/read-only levels drive the controller's mode machine.
		basePolicy := wj.FsyncPolicy()
		wm, err := admission.NewWatermark(admission.WatermarkConfig{
			Dir:           cfg.WALDir,
			LowBytes:      cfg.DiskLowBytes,
			ShedBytes:     cfg.DiskShedBytes,
			ReadOnlyBytes: cfg.DiskReadOnlyBytes,
			CheckEvery:    cfg.DiskCheckEvery,
			OnChange: func(from, to admission.Level) {
				if to >= admission.LevelLow && from < admission.LevelLow {
					wj.SetFsyncPolicy(wal.FsyncOnBatch)
				} else if to < admission.LevelLow && from >= admission.LevelLow {
					wj.SetFsyncPolicy(basePolicy)
				}
				s.log.Warn("wal disk watermark", "from", from, "to", to)
			},
		})
		if err != nil {
			return fmt.Errorf("%w: disk watermarks: %v", ErrConfig, err)
		}
		wm.RegisterMetrics(s.Server.Metrics())
		s.watermark, acfg.Watermark = wm, wm
	}
	ctrl := admission.NewController(acfg)
	ctrl.RegisterMetrics(s.Server.Metrics())
	s.Server.AddHealthMetric("shed", ctrl.TotalShed)
	s.Server.AddHealthMetric("admission_mode", func() int64 { return int64(ctrl.Mode()) })
	if backlog != nil {
		s.Server.AddHealthMetric("journal_pending", func() int64 { return int64(backlog()) })
	}
	s.Admission = ctrl
	s.handler = ctrl.Middleware(s.handler)
	s.log.Info("admission control enabled",
		"min_inflight", cfg.AdmissionMinInflight, "max_inflight", cfg.AdmissionMaxInflight,
		"backstop_pending", cfg.ShedPending)
	return nil
}

// Handler is the full HTTP stack: access log → stats auth → admission →
// beacon.Server.
func (s *Stack) Handler() http.Handler { return s.handler }

// Start launches everything that runs between requests: the cluster
// node's probe and drain loops, the disk watermark poller and the
// stats/sync, sweep and snapshot tickers. Close stops them. Call it once.
func (s *Stack) Start() {
	cfg := s.cfg
	if s.Node != nil {
		s.Node.Start()
	}
	if s.watermark != nil {
		s.watermark.Start()
	}
	if cfg.LogEvery > 0 {
		s.every(cfg.LogEvery, func(time.Time) {
			if s.Journal != nil {
				// Keeps an idle stream durable under -fsync batch/interval. A
				// full disk degrades (breaker, alarm gauge); it never crashes.
				if err := s.Journal.Sync(); err != nil {
					s.log.Warn("wal sync", "err", err)
				}
			}
			s.log.Info("stats", "events", s.Store.Len(), "accepted", s.Server.Accepted(),
				"rejected", s.Server.Rejected(), "campaigns", s.Aggregate.Campaigns(),
				"queue_depth", s.Queue.Depth())
		})
	}
	// The detector shares the aggregator's pass, so one sweep covers both.
	if cfg.ReportSweepEvery > 0 && cfg.ReportTTL >= 0 {
		s.every(cfg.ReportSweepEvery, func(now time.Time) {
			if n := s.Aggregate.Sweep(now); n > 0 {
				s.log.Debug("sweep", "evicted", n, "open", s.Aggregate.OpenImpressions())
			}
		})
	}
	if s.Journal != nil && cfg.SnapshotEvery > 0 {
		s.every(cfg.SnapshotEvery, func(time.Time) {
			wrote, err := s.Journal.Snapshot(s.Store)
			if err != nil {
				s.log.Warn("wal snapshot", "err", err)
			} else if wrote {
				idx, _ := s.Journal.SnapshotInfo()
				s.log.Info("wal snapshot", "covers", idx, "segments", s.Journal.WAL().Segments())
			}
		})
	}
}

// every runs tick each period on its own goroutine until Close.
func (s *Stack) every(period time.Duration, tick func(now time.Time)) {
	s.tickers.Add(1)
	go func() {
		defer s.tickers.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-ticker.C:
				tick(now)
			}
		}
	}()
}

// Close drains the stack once the caller's http.Server has shut down.
// The tickers stop first and are waited for, so nothing snapshots or
// syncs beside the steps that follow in dependency order: cluster node,
// queue into the journal (bounded by ctx), parting snapshot (best
// effort), journal fsync and close — a SIGTERM must not tear the last
// beacons. A failed step does not stop the next; the errors are joined.
// A second Close does nothing.
func (s *Stack) Close(ctx context.Context) error {
	var errs []error
	step := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	s.closeOnce.Do(func() {
		close(s.stop)
		s.tickers.Wait()
		if s.watermark != nil {
			s.watermark.Close()
		}
		if s.Node != nil {
			step("cluster close", s.Node.Close())
		}
		if s.Queue != nil {
			step("queue drain", s.Queue.Close(ctx))
		}
		if s.Journal != nil {
			if s.cfg.SnapshotEvery > 0 {
				_, err := s.Journal.Snapshot(s.Store)
				step("final snapshot", err)
			}
			s.PendingAtClose = s.Journal.Pending()
			step("wal close", s.Journal.Close())
		}
	})
	return errors.Join(errs...)
}
