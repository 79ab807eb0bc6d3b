package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/wal"
)

// This file is the whole-cluster fault harness: an in-process N-node
// cluster with real sockets, real WALs, and a partitionable network,
// built so the kill/partition sweeps (and make cluster-chaos) can
// murder nodes deterministically and then prove the invariant the
// cluster exists for: every beacon acked by any live node is counted
// exactly once cluster-wide after recovery.

// Partitioner is the harness network: a RoundTripper factory whose
// links can be cut per directed (from, to) pair. A cut link fails with
// faults.ErrConnDropped before any bytes move — a clean model of a
// network partition, visible to forwarders and probes alike.
type Partitioner struct {
	mu      sync.Mutex
	blocked map[string]bool // "from->hostport"
	addrs   map[string]string
	next    http.RoundTripper
}

// NewPartitioner builds a partitioner over next (http.DefaultTransport
// when nil).
func NewPartitioner(next http.RoundTripper) *Partitioner {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Partitioner{blocked: make(map[string]bool), addrs: make(map[string]string), next: next}
}

func (p *Partitioner) register(nodeID, hostport string) {
	p.mu.Lock()
	p.addrs[nodeID] = hostport
	p.mu.Unlock()
}

// Cut severs the directed link from → to; Heal restores it. CutBoth /
// HealBoth do both directions.
func (p *Partitioner) Cut(from, to string) {
	p.mu.Lock()
	p.blocked[from+"->"+p.addrs[to]] = true
	p.mu.Unlock()
}

func (p *Partitioner) Heal(from, to string) {
	p.mu.Lock()
	delete(p.blocked, from+"->"+p.addrs[to])
	p.mu.Unlock()
}

func (p *Partitioner) CutBoth(a, b string)  { p.Cut(a, b); p.Cut(b, a) }
func (p *Partitioner) HealBoth(a, b string) { p.Heal(a, b); p.Heal(b, a) }

// Transport returns the RoundTripper a given node uses for all
// outbound cluster traffic (forwards, probes, federation).
func (p *Partitioner) Transport(nodeID string) http.RoundTripper {
	return partitionedTransport{p: p, from: nodeID}
}

type partitionedTransport struct {
	p    *Partitioner
	from string
	// next overrides the partitioner's shared base transport when set —
	// the composition point for per-node fault injection.
	next http.RoundTripper
}

func (t partitionedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.p.mu.Lock()
	cut := t.p.blocked[t.from+"->"+req.URL.Host]
	t.p.mu.Unlock()
	if cut {
		return nil, faults.ErrConnDropped
	}
	if t.next != nil {
		return t.next.RoundTrip(req)
	}
	return t.p.next.RoundTrip(req)
}

// HarnessConfig sizes a test cluster. Zero values pick fast-failover
// settings suited to tests, not production.
type HarnessConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Dir is the root scratch directory; each node gets Dir/<id>/wal and
	// Dir/<id>/handoff. Required.
	Dir string
	// ProbeEvery / ProbeTimeout / SuspectAfter / DeadAfter tune
	// failover speed (defaults 25ms / 250ms / 1 / 2).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	SuspectAfter int
	DeadAfter    int
	// ForwardTimeout / ForwardRetries / BreakerThreshold /
	// BreakerCooldown tune the forwarders (defaults 500ms / 1 / 3 /
	// 100ms).
	ForwardTimeout   time.Duration
	ForwardRetries   int
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ReadyHintBacklog passes through to each node's readiness check.
	ReadyHintBacklog int64
	// FaultTransport, when set, wraps each node's outbound transport
	// BELOW the partitioner — the seam for faults.NewRoundTripper
	// profiles (injected timeouts, 5xx bursts).
	FaultTransport func(next http.RoundTripper) http.RoundTripper
	// SpanStore, when set, enables distributed tracing on every node.
	// The store is shared cluster-wide — the in-process stand-in for a
	// central collector — so spans recorded by a node survive its Kill,
	// and a trace that crosses nodes lands in one place for assertions.
	SpanStore *obs.SpanStore
	// TraceSample is the head sampling rate when SpanStore is set
	// (default 1.0 — propagation tests want every trace).
	TraceSample float64
	// Admission gates every node's HTTP stack behind an adaptive
	// admission controller — the same wiring qtag-server uses — so the
	// overload sweeps exercise priority shedding and degraded-mode
	// recovery on real sockets.
	Admission bool
	// AdmissionLimiter tunes each node's limiter when Admission is set;
	// zero fields take the admission package defaults.
	AdmissionLimiter admission.LimiterConfig
	// AdmissionBacklog, when non-zero with Admission, is the
	// journal-backlog hard backstop: fresh ingest sheds once a node's
	// unsynced WAL backlog exceeds it, whatever the limiter thinks.
	// Negative values trip it permanently (fault-injection tests).
	AdmissionBacklog int64
	// AdmissionRecoveryHold is how long a node must stay pressure-free
	// before browned-out recovers (default per admission.Config).
	AdmissionRecoveryHold time.Duration
	// AdmissionRetryAfter is the Retry-After hint on shed responses
	// (default per admission.Config). Forwarding origins honor it as
	// their retry backoff, so a shedding peer's hint directly sets how
	// long an admitted forward occupies its origin's admission slot —
	// overload sweeps shrink it so forwards fail fast into handoff.
	AdmissionRetryAfter time.Duration
}

func (c *HarnessConfig) defaults() error {
	if c.Dir == "" {
		return fmt.Errorf("cluster: harness needs a Dir")
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 25 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 500 * time.Millisecond
	}
	if c.ForwardRetries <= 0 {
		c.ForwardRetries = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	if c.SpanStore != nil && c.TraceSample == 0 {
		c.TraceSample = 1
	}
	return nil
}

// HarnessNode is one live (or killed) member of the harness cluster.
type HarnessNode struct {
	ID  string
	URL string

	Store     *beacon.Store
	Agg       *aggregate.Aggregator
	Journal   *beacon.WALJournal
	Node      *Node
	Server    *beacon.Server
	Admission *admission.Controller // nil unless HarnessConfig.Admission

	addr    string // stable across restarts
	walDir  string
	hintDir string
	httpSrv *http.Server
	alive   bool
}

// Alive reports whether the node is currently serving.
func (hn *HarnessNode) Alive() bool { return hn.alive }

// Harness is the in-process cluster.
type Harness struct {
	cfg   HarnessConfig
	Net   *Partitioner
	Nodes []*HarnessNode
	peers map[string]string // id -> URL, full membership
}

// StartHarness boots an N-node cluster. All listeners are bound before
// any node starts, so every node knows the full membership up front —
// the same static-membership model the qtag-server flags express.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, Net: NewPartitioner(nil), peers: make(map[string]string)}
	lns := make([]net.Listener, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		id := fmt.Sprintf("n%d", i)
		addr := ln.Addr().String()
		hn := &HarnessNode{
			ID:      id,
			URL:     "http://" + addr,
			addr:    addr,
			walDir:  filepath.Join(cfg.Dir, id, "wal"),
			hintDir: filepath.Join(cfg.Dir, id, "handoff"),
		}
		h.Nodes = append(h.Nodes, hn)
		h.peers[id] = hn.URL
		h.Net.register(id, addr)
	}
	for i, hn := range h.Nodes {
		if err := h.boot(hn, lns[i]); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// boot builds one node's full stack on an existing listener and starts
// serving. It is the restart path too: state comes only from the
// node's WAL and handoff directories.
func (h *Harness) boot(hn *HarnessNode, ln net.Listener) error {
	store := beacon.NewStoreWithShards(beacon.DefaultStoreShards)
	agg := aggregate.New(aggregate.Options{})
	store.AddObserver(agg.Observe)
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: hn.walDir, Fsync: wal.FsyncAlways}, store)
	if err != nil {
		return fmt.Errorf("cluster: boot %s wal: %w", hn.ID, err)
	}

	peers := make(map[string]string, len(h.peers)-1)
	for id, url := range h.peers {
		if id != hn.ID {
			peers[id] = url
		}
	}
	transport := http.RoundTripper(h.Net.Transport(hn.ID))
	if h.cfg.FaultTransport != nil {
		transport = h.Net.TransportWith(hn.ID, h.cfg.FaultTransport)
	}
	var tracer *obs.Tracer
	if h.cfg.SpanStore != nil {
		tracer = obs.NewTracer(obs.TracerConfig{
			Node:       hn.ID,
			SampleRate: h.cfg.TraceSample,
			Store:      h.cfg.SpanStore,
		})
	}
	node, err := NewNode(Config{
		Self:             hn.ID,
		Peers:            peers,
		Local:            beacon.Tee(store, wj),
		HandoffDir:       hn.hintDir,
		ProbeEvery:       h.cfg.ProbeEvery,
		ProbeTimeout:     h.cfg.ProbeTimeout,
		SuspectAfter:     h.cfg.SuspectAfter,
		DeadAfter:        h.cfg.DeadAfter,
		ForwardTimeout:   h.cfg.ForwardTimeout,
		ForwardRetries:   h.cfg.ForwardRetries,
		BreakerThreshold: h.cfg.BreakerThreshold,
		BreakerCooldown:  h.cfg.BreakerCooldown,
		ReadyHintBacklog: h.cfg.ReadyHintBacklog,
		Binary:           true, // the codec qtag-server forwards in
		Tracer:           tracer,
		Transport:        transport,
	})
	if err != nil {
		wj.Close()
		return fmt.Errorf("cluster: boot %s node: %w", hn.ID, err)
	}

	srv := beacon.NewServerWithSink(store, node)
	srv.SetReadiness(node.Readiness())
	srv.SetTracer(tracer)
	srv.Mount("GET /report", FederatedHandler(agg, FederationConfig{
		Self:      hn.ID,
		Peers:     peers,
		Transport: transport,
		Tracer:    tracer,
	}))
	node.RegisterMetrics(srv.Metrics())

	handler := http.Handler(srv)
	if h.cfg.Admission {
		acfg := admission.Config{
			Limiter:      h.cfg.AdmissionLimiter,
			RecoveryHold: h.cfg.AdmissionRecoveryHold,
			RetryAfter:   h.cfg.AdmissionRetryAfter,
		}
		if h.cfg.AdmissionBacklog != 0 {
			limit := h.cfg.AdmissionBacklog
			acfg.Backstop = func() bool { return int64(wj.Pending()) > limit }
		}
		ctrl := admission.NewController(acfg)
		ctrl.RegisterMetrics(srv.Metrics())
		// /readyz reflects both hint backlog and admission mode: a
		// browned-out or read-only node tells the balancer to route away.
		nodeReady := node.Readiness()
		srv.SetReadiness(func() error {
			if err := nodeReady(); err != nil {
				return err
			}
			if !ctrl.Ready() {
				return fmt.Errorf("admission: node is %s", ctrl.Mode())
			}
			return nil
		})
		handler = ctrl.Middleware(srv)
		hn.Admission = ctrl
	}

	hn.Store, hn.Agg, hn.Journal, hn.Node, hn.Server = store, agg, wj, node, srv
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	hn.httpSrv = httpSrv
	hn.alive = true
	node.Start()
	go func() { // serves its own incarnation: a Restart replaces hn.httpSrv
		if serr := httpSrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			_ = serr // listener closed by Kill/Close
		}
	}()
	return nil
}

// TransportWith composes the partitioner with a fault-injecting layer:
// partition checks run first (a cut link drops before faults fire), so
// a partitioned peer never also takes injected 5xxs.
func (p *Partitioner) TransportWith(nodeID string, wrap func(http.RoundTripper) http.RoundTripper) http.RoundTripper {
	return partitionedTransport{p: p, from: nodeID, next: wrap(p.next)}
}

// Kill abruptly stops node i: the listener closes mid-flight (clients
// see connection errors — those submissions were never acked), the
// probe loop and drains stop, and the WAL/hint files are released so
// Restart can reopen them. Nothing is flushed beyond what FsyncAlways
// already made durable — exactly a process kill from the disk's point
// of view.
func (h *Harness) Kill(i int) error {
	hn := h.Nodes[i]
	if !hn.alive {
		return nil
	}
	hn.alive = false
	// Close (not Shutdown): in-flight requests are severed, not drained.
	hn.httpSrv.Close()
	hn.Node.Close()
	err := hn.Journal.Close()
	hn.Store, hn.Agg, hn.Journal, hn.Node, hn.Server, hn.Admission = nil, nil, nil, nil, nil, nil
	return err
}

// Restart brings a killed node back on its original address, rebuilding
// all state from its WAL and handoff directories.
func (h *Harness) Restart(i int) error {
	hn := h.Nodes[i]
	if hn.alive {
		return nil
	}
	ln, err := net.Listen("tcp", hn.addr)
	if err != nil {
		return fmt.Errorf("cluster: rebind %s on %s: %w", hn.ID, hn.addr, err)
	}
	return h.boot(hn, ln)
}

// LiveURLs returns the base URLs of currently alive nodes, in node
// order.
func (h *Harness) LiveURLs() []string {
	var out []string
	for _, hn := range h.Nodes {
		if hn.alive {
			out = append(out, hn.URL)
		}
	}
	return out
}

// TotalPendingHints sums the hint backlog across live nodes.
func (h *Harness) TotalPendingHints() int64 {
	var n int64
	for _, hn := range h.Nodes {
		if hn.alive && hn.Node != nil {
			n += hn.Node.Stats().HintBacklog
		}
	}
	return n
}

// WaitDrained polls until no live node has pending hints (or the
// context expires).
func (h *Harness) WaitDrained(ctx context.Context) error {
	for {
		if h.TotalPendingHints() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: hints not drained: %d pending: %w", h.TotalPendingHints(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ClusterEvents returns the union of every live node's stored events —
// the "recovered cluster-wide" side of the invariant. The returned map
// counts occurrences per idempotency key so tests can assert both
// coverage (>=1) and exactly-once (==1).
func (h *Harness) ClusterEvents() map[string]int {
	out := make(map[string]int)
	for _, hn := range h.Nodes {
		if !hn.alive || hn.Store == nil {
			continue
		}
		for _, e := range hn.Store.Events() {
			out[e.Key()]++
		}
	}
	return out
}

// Close tears the whole cluster down.
func (h *Harness) Close() error {
	var first error
	for i := range h.Nodes {
		if err := h.Kill(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}
