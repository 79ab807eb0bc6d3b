package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/obs"
)

// Config wires one cluster node.
type Config struct {
	// Self is this node's ID; Peers maps every OTHER node's ID to its
	// base URL. Self plus the peer IDs form the ring — every node must
	// be configured with the same membership or ownership diverges.
	Self  string
	Peers map[string]string

	// Local is the sink owner-routed beacons land in — the node's
	// durable ingest chain (WAL journal + store + aggregator).
	Local beacon.Sink

	// HandoffDir is the hinted-handoff root (required when Peers is
	// non-empty).
	HandoffDir string

	// ProbeEvery is the health-probe interval (default 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each probe request (default 2s).
	ProbeTimeout time.Duration
	// SuspectAfter / DeadAfter are the detector's failure thresholds.
	SuspectAfter int
	DeadAfter    int

	// ForwardTimeout bounds each forward request attempt (default 2s).
	ForwardTimeout time.Duration
	// ForwardRetries is the in-line retry budget per forwarded beacon
	// (default 1). Kept deliberately small: the hint log is the durable
	// fallback, so burning seconds of ingest latency on retries buys
	// nothing.
	ForwardRetries int
	// BreakerThreshold / BreakerCooldown tune the per-peer circuit
	// breaker (defaults 5 failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ReadyHintBacklog is the handoff backlog above which the node
	// reports itself unready (0 disables the check).
	ReadyHintBacklog int64

	// Tracer, when set, records a distributed span per routing decision
	// for traced events (cluster.forward, handoff.hint, handoff.drain,
	// store.apply) and threads the trace context through forwards, hint
	// WAL records, and drain replay, so a beacon's whole cluster journey
	// is one connected trace. Nil disables cluster-layer tracing.
	Tracer *obs.Tracer

	// Binary, when set, encodes peer forwards and hint-drain replays
	// with the compact binary beacon codec instead of JSON; qtag-server
	// always sets it. A peer's 400 or 415 is a counted permanent
	// failure, never a switch to JSON. Hint WAL records are written in
	// the binary codec regardless — replay dispatches on the payload
	// version tag, so that choice never strands an old backlog.
	Binary bool

	// Transport, when set, replaces the default transport for forwards
	// and probes — the fault suites inject partitions and fault
	// RoundTrippers here.
	Transport http.RoundTripper
	// Jitter passes through to the forwarders' backoff (deterministic in
	// tests).
	Jitter func() float64
	// BaseContext, when set, is threaded into every forwarder so server
	// shutdown aborts in-flight forwards; it does not affect hint
	// appends (those must complete — they are the ack).
	BaseContext func() context.Context
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: node needs a Self id")
	}
	if c.Local == nil {
		return fmt.Errorf("cluster: node needs a Local sink")
	}
	if len(c.Peers) > 0 && c.HandoffDir == "" {
		return fmt.Errorf("cluster: node with peers needs a HandoffDir")
	}
	if _, clash := c.Peers[c.Self]; clash {
		return fmt.Errorf("cluster: Peers must not contain Self (%q)", c.Self)
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Second
	}
	if c.ForwardRetries <= 0 {
		c.ForwardRetries = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return nil
}

// peerLink is everything the node holds per peer: the retrying HTTP
// forwarder, the breaker guarding it, the drain-class replay forwarder,
// and the drain-in-flight latch. drainSink is a separate sink so hint
// replays arrive marked X-Qtag-Class: drain — the receiving node's
// admission controller sheds them before fresh ingest when saturated,
// which keeps a partition-heal drain storm from starving live traffic.
type peerLink struct {
	id        string
	sink      *beacon.HTTPSink
	drainSink *beacon.HTTPSink
	breaker   *beacon.CircuitBreaker
	draining  atomic.Bool
}

// Node is one member of the cluster: a beacon.Sink that routes every
// event to its ring owner. Owner-local events go straight to the local
// durable chain; remote-owned events are forwarded to the owner, and
// when the owner is unreachable (breaker open, forward exhausted, or
// the detector says dead) the event is journaled as a durable hint and
// acked — hinted handoff. The probe loop replays hints when owners
// recover.
type Node struct {
	cfg      Config
	ring     *Ring
	hints    *HintLog
	detector *Detector
	links    map[string]*peerLink

	cancel context.CancelFunc
	wg     sync.WaitGroup

	localAccepted atomic.Int64
	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	hinted        atomic.Int64
	drainErrors   atomic.Int64
}

// NewNode builds (but does not start) a node. With no peers it degrades
// to a pass-through around Local — single-node deployments pay nothing.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(cfg.Peers)+1)
	ids = append(ids, cfg.Self)
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, ring: ring, links: make(map[string]*peerLink, len(cfg.Peers))}
	if len(cfg.Peers) == 0 {
		return n, nil
	}
	n.hints, err = OpenHintLog(HintOptions{Dir: cfg.HandoffDir})
	if err != nil {
		return nil, err
	}
	for id, url := range cfg.Peers {
		sink := &beacon.HTTPSink{
			BaseURL:     url,
			Client:      &http.Client{Transport: cfg.Transport},
			Retries:     cfg.ForwardRetries,
			Timeout:     cfg.ForwardTimeout,
			Jitter:      cfg.Jitter,
			BaseContext: cfg.BaseContext,
			Spans:       cfg.Tracer,
			Binary:      cfg.Binary,
		}
		drainSink := &beacon.HTTPSink{
			BaseURL:     url,
			Client:      &http.Client{Transport: cfg.Transport},
			Retries:     cfg.ForwardRetries,
			Timeout:     cfg.ForwardTimeout,
			Jitter:      cfg.Jitter,
			BaseContext: cfg.BaseContext,
			Spans:       cfg.Tracer,
			Class:       "drain",
			Binary:      cfg.Binary,
		}
		n.links[id] = &peerLink{
			id:        id,
			sink:      sink,
			drainSink: drainSink,
			breaker:   beacon.NewCircuitBreaker(sink, cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	n.detector = NewDetector(cfg.Peers, DetectorConfig{
		ProbeTimeout: cfg.ProbeTimeout,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		Transport:    cfg.Transport,
	})
	n.detector.OnRecover(func(peerID string) { n.kickDrain(peerID) })
	return n, nil
}

// Ring exposes the node's addressing ring (shared, immutable).
func (n *Node) Ring() *Ring { return n.ring }

// BreakerState reports the forwarder breaker's state for one peer
// (BreakerClosed for unknown peers).
func (n *Node) BreakerState(peerID string) beacon.BreakerState {
	if link, ok := n.links[peerID]; ok {
		return link.breaker.State()
	}
	return beacon.BreakerClosed
}

// Detector exposes the failure detector (nil for single-node).
func (n *Node) Detector() *Detector { return n.detector }

// Hints exposes the hint log (nil for single-node).
func (n *Node) Hints() *HintLog { return n.hints }

// Submit routes one beacon: local, forwarded, or hinted. It implements
// beacon.Sink, so it drops into the server's existing sink chain.
//
// The ack contract: Submit returning nil means the beacon is durable
// somewhere that will eventually count it exactly once — the local
// chain, the owner's chain, or this node's hint WAL. Only permanent
// rejections (invalid payloads the owner can never accept) and hint
// journal failures surface as errors.
func (n *Node) Submit(e beacon.Event) error {
	owner := n.ring.Owner(e.ImpressionID)
	if owner == n.cfg.Self {
		sp := n.span(e, "store.apply")
		if err := n.cfg.Local.Submit(e); err != nil {
			sp.SetError(err.Error())
			sp.End()
			return err
		}
		sp.End()
		n.localAccepted.Add(1)
		return nil
	}
	link := n.links[owner]
	if n.detector.State(owner) != PeerDead {
		fe := e
		fsp := n.span(e, "cluster.forward")
		if fsp != nil {
			fsp.SetAttr("peer", owner)
			fe.Trace = fsp.TraceParent()
		}
		err := link.breaker.Submit(fe)
		if err == nil {
			fsp.End()
			n.forwarded.Add(1)
			return nil
		}
		fsp.SetError(err.Error())
		fsp.End()
		if beacon.IsPermanent(err) {
			return err
		}
		n.forwardErrors.Add(1)
		// The hint below parents on the failed forward span, keeping the
		// causal chain forward-failed → hinted in one trace branch.
		e = fe
	}
	// Owner unreachable (dead, breaker open, or retries exhausted):
	// degrade to hinted handoff. The append is durable before we return,
	// so the ack holds across a local crash.
	hsp := n.span(e, "handoff.hint")
	if hsp != nil {
		hsp.SetAttr("peer", owner)
		// Persist the hint span's context with the record: the drain —
		// minutes or a restart later — replays as this span's child.
		e.Trace = hsp.TraceParent()
	}
	if err := n.hints.Append(owner, e); err != nil {
		hsp.SetError(err.Error())
		hsp.End()
		return fmt.Errorf("cluster: hint %s: %w", owner, err)
	}
	hsp.End()
	n.hinted.Add(1)
	return nil
}

// span opens a child span continuing a traced event's context. Untraced
// events — and nodes without a tracer — cost nothing and return nil
// (every *obs.Span method is nil-safe).
func (n *Node) span(e beacon.Event, name string) *obs.Span {
	if n.cfg.Tracer == nil || e.Trace == "" {
		return nil
	}
	return n.cfg.Tracer.StartSpanParent(e.Trace, name)
}

// Start launches the probe/drain loop. Safe to skip for single-node.
func (n *Node) Start() {
	if n.detector == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				n.Tick(ctx)
			}
		}
	}()
}

// Tick runs one probe round and kicks drains for every alive peer with
// a backlog. Deterministic tests call it directly instead of Start.
func (n *Node) Tick(ctx context.Context) {
	if n.detector == nil {
		return
	}
	n.detector.Tick(ctx)
	for id := range n.links {
		if n.detector.State(id) == PeerAlive && n.hints.Pending(id) > 0 {
			n.kickDrain(id)
		}
	}
}

// kickDrain starts a background drain for peerID unless one is already
// in flight.
func (n *Node) kickDrain(peerID string) {
	link, ok := n.links[peerID]
	if !ok || n.hints.Pending(peerID) == 0 {
		return
	}
	if !link.draining.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer link.draining.Store(false)
		n.drain(link)
	}()
}

// drain replays peerID's backlog through the raw forwarder (not the
// breaker: the probe just said the peer is back, and a half-open
// breaker would reject most of the batch). Errors abort the drain;
// whatever was not delivered stays pending for the next probe round.
func (n *Node) drain(link *peerLink) {
	_, err := n.hints.Drain(link.id, n.drainForward(link))
	if err != nil {
		n.drainErrors.Add(1)
	}
}

// drainForward builds the hint-replay delivery function for one peer.
// Each traced hint replays inside a "handoff.drain" span that parents
// on the hint span persisted in the WAL record, relinking the delayed
// replay to the beacon's original trace.
func (n *Node) drainForward(link *peerLink) func([]beacon.Event) error {
	return func(events []beacon.Event) error {
		var spans []*obs.Span
		if n.cfg.Tracer != nil {
			spans = make([]*obs.Span, 0, len(events))
			for i := range events {
				if events[i].Trace == "" {
					continue
				}
				sp := n.cfg.Tracer.StartSpanParent(events[i].Trace, "handoff.drain")
				sp.SetAttr("peer", link.id)
				events[i].Trace = sp.TraceParent()
				spans = append(spans, sp)
			}
		}
		err := link.drainSink.SubmitBatch(events)
		for _, sp := range spans {
			if err != nil {
				sp.SetError(err.Error())
			}
			sp.End()
		}
		return err
	}
}

// DrainNow synchronously drains one peer (tests and shutdown paths).
func (n *Node) DrainNow(peerID string) (int, error) {
	link, ok := n.links[peerID]
	if !ok {
		return 0, fmt.Errorf("cluster: unknown peer %q", peerID)
	}
	return n.hints.Drain(peerID, n.drainForward(link))
}

// Readiness returns the node's readiness check for Server.SetReadiness:
// unready while the hint backlog exceeds ReadyHintBacklog, because a
// node buried in undelivered hints is accepting writes it cannot yet
// place with their owners.
func (n *Node) Readiness() func() error {
	return func() error {
		if n.hints == nil || n.cfg.ReadyHintBacklog <= 0 {
			return nil
		}
		if p := n.hints.TotalPending(); p > n.cfg.ReadyHintBacklog {
			return fmt.Errorf("hint backlog %d exceeds %d", p, n.cfg.ReadyHintBacklog)
		}
		return nil
	}
}

// Close stops the probe loop and waits for in-flight drains, then
// closes the hint log.
func (n *Node) Close() error {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
	if n.hints != nil {
		return n.hints.Close()
	}
	return nil
}

// Stats is a point-in-time routing counter snapshot.
type Stats struct {
	LocalAccepted int64 `json:"local_accepted"`
	Forwarded     int64 `json:"forwarded"`
	ForwardErrors int64 `json:"forward_errors"`
	Hinted        int64 `json:"hinted"`
	HintsReplayed int64 `json:"hints_replayed"`
	HintBacklog   int64 `json:"hint_backlog"`
	DrainErrors   int64 `json:"drain_errors"`
}

// Stats snapshots the node's routing counters.
func (n *Node) Stats() Stats {
	s := Stats{
		LocalAccepted: n.localAccepted.Load(),
		Forwarded:     n.forwarded.Load(),
		ForwardErrors: n.forwardErrors.Load(),
		Hinted:        n.hinted.Load(),
		DrainErrors:   n.drainErrors.Load(),
	}
	if n.hints != nil {
		s.HintsReplayed = n.hints.Replayed()
		s.HintBacklog = n.hints.TotalPending()
	}
	return s
}

// RegisterMetrics exposes the qtag_cluster_* metric family on r,
// including per-peer state and backlog gauges.
func (n *Node) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_cluster_local_accepted_total",
		"Beacons routed to the local store (this node owns them).",
		n.localAccepted.Load)
	r.CounterFunc("qtag_cluster_forwarded_total",
		"Beacons forwarded to their owner node.",
		n.forwarded.Load)
	r.CounterFunc("qtag_cluster_forward_errors_total",
		"Forward attempts that exhausted retries or hit an open breaker.",
		n.forwardErrors.Load)
	r.CounterFunc("qtag_cluster_hints_written_total",
		"Beacons journaled to hinted handoff.",
		n.hinted.Load)
	r.CounterFunc("qtag_cluster_drain_errors_total",
		"Hint drains aborted by forward failures.",
		n.drainErrors.Load)
	if n.hints != nil {
		r.CounterFunc("qtag_cluster_hints_replayed_total",
			"Hints successfully replayed to recovered owners.",
			n.hints.Replayed)
		r.GaugeFunc("qtag_cluster_hint_backlog",
			"Hints pending delivery, all peers.",
			func() float64 { return float64(n.hints.TotalPending()) })
	}
	if n.detector != nil {
		r.CounterFunc("qtag_cluster_probes_total",
			"Health probes sent.",
			func() int64 { p, _ := n.detector.Probes(); return p })
		r.CounterFunc("qtag_cluster_probe_failures_total",
			"Health probes failed.",
			func() int64 { _, f := n.detector.Probes(); return f })
	}
	for id, link := range n.links {
		id, link := id, link
		r.GaugeFunc("qtag_cluster_peer_state",
			"Peer state per the failure detector (0 alive, 1 suspect, 2 dead).",
			func() float64 { return float64(n.detector.State(id)) },
			obs.Label{Name: "peer", Value: id})
		r.GaugeFunc("qtag_cluster_peer_hint_backlog",
			"Hints pending delivery to this peer.",
			func() float64 { return float64(n.hints.Pending(id)) },
			obs.Label{Name: "peer", Value: id})
		r.GaugeFunc("qtag_cluster_peer_breaker_state",
			"Forwarder breaker state (0 closed, 1 open, 2 half-open).",
			func() float64 { return float64(link.breaker.State()) },
			obs.Label{Name: "peer", Value: id})
	}
}
