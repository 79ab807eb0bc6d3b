// Package collector assembles the Q-Tag monitoring server — the process
// whose silence turns an impression into "not measured" (paper §3) —
// from its parts: store → aggregate/detect observers → WAL → breaker →
// queue or request sink → tracer → cluster node → receive stamp →
// beacon.Server → middleware. cmd/qtag-server binds its flags straight
// into Config and serves Stack.Handler(); the proof suites boot the same
// Stack behind httptest, so what they prove is what ships. DESIGN.md
// "Assembly" gives the reason for each step's place in the order.
package collector

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/obs"
	"qtag/internal/wal"
)

// ErrConfig marks an error the operator fixes by changing flags, as
// opposed to the environment failing: qtag-server exits 2 on it, 1 on
// anything else.
var ErrConfig = errors.New("collector: bad configuration")

// Config shapes a Stack. Every field but the last three and those marked
// "no flag" is one qtag-server flag, named in its comment; the flag's
// help text lives in cmd/qtag-server's flag table and its default in
// DefaultConfig.
type Config struct {
	// LogEvery (-log-every) is the stats ticker's period. The same tick
	// fsyncs an idle WAL stream, so 0 turns the stats line and that
	// periodic sync off together — bench/ passes 0 to keep the sync out
	// of its measured phases.
	LogEvery time.Duration

	WALDir          string          // -wal-dir
	WALSegmentBytes int64           // -wal-segment-bytes
	Fsync           wal.FsyncPolicy // -fsync
	FsyncEvery      time.Duration   // -fsync-every
	SnapshotEvery   time.Duration   // -snapshot-every; 0 also skips the parting snapshot
	GroupCommit     bool            // -group-commit
	DurableSync     bool            // -durable-sync
	QueueCap        int             // -queue-cap

	IngestShards int    // -ingest-shards
	MaxBodyBytes int64  // -max-body-bytes
	StatsKey     string // -stats-key

	Admission            bool          // -admission
	AdmissionMinInflight int           // adaptive concurrency limit floor, 0 = package default; no flag
	AdmissionMaxInflight int           // adaptive concurrency limit ceiling, 0 = package default; no flag
	ShedPending          int           // -shed-pending
	RetryAfter           time.Duration // Retry-After hint on shed responses; no flag
	DiskLowBytes         int64         // -disk-low-bytes
	DiskShedBytes        int64         // -disk-shed-bytes
	DiskReadOnlyBytes    int64         // -disk-readonly-bytes
	DiskCheckEvery       time.Duration // free-space probe cadence for the disk watermarks; no flag

	ReportTTL        time.Duration // -report-ttl
	ReportSweepEvery time.Duration // eviction sweep cadence, 0 disables; no flag
	ReportWindow     time.Duration // rollup window width on GET /report; no flag
	ReportWindows    int           // rollup windows retained; no flag
	ReportMaxOpen    int           // -report-max-open

	Detect bool // -detect

	NodeID           string            // -node-id
	Peers            map[string]string // -peers, parsed: id → base URL
	HandoffDir       string            // -handoff-dir
	ProbeEvery       time.Duration     // peer health probe period; no flag
	ReadyHintBacklog int64             // -ready-hint-backlog

	TraceSample      float64       // -trace-sample
	SlowRequest      time.Duration // -slow-request
	AccessLog        bool          // -access-log
	MetricsExemplars bool          // -metrics-exemplars
	Pprof            bool          // -pprof

	// Test is what only the in-process cluster suites change
	// (collectortest.StartHarness); no flag, and its zero value is the
	// stack qtag-server runs.
	Test TestConfig

	// Logger receives recovery, ticker and access-log lines
	// (slog.Default when nil).
	Logger *slog.Logger
	// Version labels qtag_build_info.
	Version string
	// BaseContext, when set, is threaded into every peer forwarder so a
	// shutdown signal aborts their retry schedules.
	BaseContext func() context.Context
}

// TestConfig is the part of a Stack's wiring that a test cluster
// replaces so that it can cut links and read spans across nodes.
type TestConfig struct {
	// Transport carries every request to a peer: forwards, probes and
	// the federated /report fan-out (http.DefaultTransport when nil).
	Transport http.RoundTripper
	// Spans, when set, is the span store tracing records into instead of
	// a fresh one per stack: shared by a test cluster's nodes, it keeps a
	// killed node's spans and puts a trace that crosses nodes in one place.
	Spans *obs.SpanStore
}

// DefaultConfig is qtag-server with no flags given.
func DefaultConfig() Config {
	return Config{
		LogEvery:         30 * time.Second,
		WALSegmentBytes:  8 << 20,
		Fsync:            wal.FsyncOnBatch,
		FsyncEvery:       time.Second,
		SnapshotEvery:    time.Minute,
		GroupCommit:      true,
		QueueCap:         4096,
		IngestShards:     beacon.DefaultStoreShards,
		MaxBodyBytes:     beacon.DefaultMaxBodyBytes,
		Admission:        true,
		RetryAfter:       2 * time.Second,
		DiskCheckEvery:   2 * time.Second,
		ReportTTL:        15 * time.Minute,
		ReportSweepEvery: time.Minute,
		ReportWindow:     time.Minute,
		ReportWindows:    60,
		ProbeEvery:       time.Second,
		ReadyHintBacklog: 10000,
	}
}

// Validate reports flag combinations no stack can be built from. Every
// error wraps ErrConfig.
func (c Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
	}
	disk := c.DiskLowBytes > 0 || c.DiskShedBytes > 0 || c.DiskReadOnlyBytes > 0
	switch {
	case c.DurableSync && c.WALDir == "":
		return bad("-durable-sync requires -wal-dir (synchronous durability needs a crash-safe journal)")
	case c.TraceSample < 0 || c.TraceSample > 1:
		return bad("-trace-sample must be in [0,1], got %v", c.TraceSample)
	case !c.Admission && c.ShedPending > 0:
		return bad("-shed-pending is the admission controller's backstop and needs -admission; -admission=false runs with no overload control")
	case c.ShedPending > 0 && c.WALDir == "":
		return bad("-shed-pending requires -wal-dir (the backstop sheds on the WAL's backlog, and without a journal there is none)")
	case disk && c.WALDir == "":
		return bad("-disk-low-bytes, -disk-shed-bytes and -disk-readonly-bytes require -wal-dir (they watch the WAL's disk)")
	case disk && !c.Admission:
		return bad("-disk-low-bytes, -disk-shed-bytes and -disk-readonly-bytes need -admission (the admission controller acts on them); -admission=false runs with no overload control")
	}
	if len(c.Peers) > 0 {
		_, self := c.Peers[c.NodeID]
		switch {
		case c.NodeID == "":
			return bad("-peers requires -node-id")
		case c.HandoffDir == "":
			return bad("-peers requires -handoff-dir (hinted handoff needs a durable journal)")
		case self:
			return bad("-peers must not contain this node's own -node-id %q", c.NodeID)
		}
	}
	return nil
}
