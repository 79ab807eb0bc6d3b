package collectortest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/faults"
	"qtag/internal/wal"
)

// This file is the whole-cluster fault harness: N collector.Open stacks
// in one process, on real sockets with real WALs and hint journals, over
// a network that can be partitioned, so the kill/partition sweeps (make
// cluster-chaos, trace-chaos, overload-chaos) can stop nodes
// deterministically and then prove the invariant the cluster exists
// for: every beacon acked by any live node is counted exactly once
// cluster-wide after recovery.

// Partitioner is the harness network: a RoundTripper factory whose
// links can be cut per directed (from, to) pair. A cut link fails with
// faults.ErrConnDropped before any bytes move — a clean model of a
// network partition, visible to forwarders, probes and federated
// reports alike.
type Partitioner struct {
	mu      sync.Mutex
	blocked map[string]bool // "from->hostport"
	addrs   map[string]string
}

func newPartitioner() *Partitioner {
	return &Partitioner{blocked: make(map[string]bool), addrs: make(map[string]string)}
}

// CutBoth severs the link between nodes a and b in both directions;
// HealBoth restores it.
func (p *Partitioner) CutBoth(a, b string)  { p.set(a, b, true) }
func (p *Partitioner) HealBoth(a, b string) { p.set(a, b, false) }

func (p *Partitioner) set(a, b string, cut bool) {
	p.mu.Lock()
	p.blocked[a+"->"+p.addrs[b]] = cut
	p.blocked[b+"->"+p.addrs[a]] = cut
	p.mu.Unlock()
}

// partitionedTransport is one node's outbound transport: partition
// checks run first (a cut link drops before injected faults fire), then
// next carries the request.
type partitionedTransport struct {
	p    *Partitioner
	from string
	next http.RoundTripper
}

func (t partitionedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.p.mu.Lock()
	cut := t.p.blocked[t.from+"->"+req.URL.Host]
	t.p.mu.Unlock()
	if cut {
		return nil, faults.ErrConnDropped
	}
	return t.next.RoundTrip(req)
}

// HarnessConfig sizes a test cluster.
type HarnessConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Base is every node's Config, usually NodeConfig() with a test's
	// changes; the harness sets NodeID, Peers, Test.Transport, and
	// WALDir and HandoffDir under the test's temporary directory, per
	// node.
	Base collector.Config
	// FaultTransport, when set, wraps each node's outbound transport
	// BELOW the partitioner — the seam for faults.NewRoundTripper
	// profiles (injected timeouts, 5xx bursts).
	FaultTransport func(next http.RoundTripper) http.RoundTripper
}

// NodeConfig is qtag-server with no flags but the ones that make a 202
// mean the beacon is in the WAL: -durable-sync and -fsync always.
// -snapshot-every 0 keeps Kill as abrupt as a process kill, with no
// parting snapshot.
func NodeConfig() collector.Config {
	cfg := collector.DefaultConfig()
	cfg.DurableSync, cfg.Fsync, cfg.SnapshotEvery = true, wal.FsyncAlways, 0
	return cfg
}

// HarnessNode is one live (or killed) member of the harness cluster.
type HarnessNode struct {
	ID  string
	URL string
	// Stack is the node's collector, nil while the node is killed.
	Stack *collector.Stack

	addr    string // stable across restarts
	cfg     collector.Config
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve has returned
}

// Alive reports whether the node is currently serving.
func (hn *HarnessNode) Alive() bool { return hn.Stack != nil }

// Harness is the in-process cluster.
type Harness struct {
	t     testing.TB
	Net   *Partitioner
	Nodes []*HarnessNode
}

// StartHarness boots an N-node cluster and closes it at test cleanup; a
// nil Base.Logger discards. All listeners are bound before any node
// starts, so every node knows the full membership up front — the same
// static-membership model the qtag-server flags express.
func StartHarness(t testing.TB, cfg HarnessConfig) *Harness {
	t.Helper()
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	dir := t.TempDir()
	if cfg.Base.Logger == nil {
		cfg.Base.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	h := &Harness{t: t, Net: newPartitioner()}
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Errorf("harness close: %v", err)
		}
	})
	lns := make([]net.Listener, cfg.Nodes)
	urls := make(map[string]string, cfg.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		id, addr := fmt.Sprintf("n%d", i), ln.Addr().String()
		urls[id] = "http://" + addr
		h.Net.addrs[id] = addr
		h.Nodes = append(h.Nodes, &HarnessNode{ID: id, URL: urls[id], addr: addr})
	}
	for i, hn := range h.Nodes {
		hn.cfg = cfg.Base
		hn.cfg.NodeID = hn.ID
		hn.cfg.WALDir = filepath.Join(dir, hn.ID, "wal")
		hn.cfg.HandoffDir = filepath.Join(dir, hn.ID, "handoff")
		hn.cfg.Peers = make(map[string]string, len(urls)-1)
		for id, url := range urls {
			if id != hn.ID {
				hn.cfg.Peers[id] = url
			}
		}
		next := http.DefaultTransport
		if cfg.FaultTransport != nil {
			next = cfg.FaultTransport(next)
		}
		hn.cfg.Test.Transport = partitionedTransport{p: h.Net, from: hn.ID, next: next}
		if err := h.boot(hn, lns[i]); err != nil {
			for _, ln := range lns[i+1:] {
				ln.Close()
			}
			t.Fatal(err)
		}
	}
	return h
}

// boot opens one node's stack from its WAL and handoff directories and
// serves it on ln. It is the restart path too.
func (h *Harness) boot(hn *HarnessNode, ln net.Listener) error {
	stack, err := collector.Open(hn.cfg)
	if err != nil {
		ln.Close()
		return fmt.Errorf("boot %s: %w", hn.ID, err)
	}
	httpSrv := &http.Server{Handler: stack.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	hn.Stack, hn.httpSrv, hn.served = stack, httpSrv, served
	stack.Start()
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln) // http.ErrServerClosed once Kill closes it
	}()
	return nil
}

// Kill abruptly stops node i: the listener closes mid-flight (clients
// see connection errors — those submissions were never acked), then
// Stack.Close stops the probe loop and drains and releases the WAL and
// hint files so Restart can reopen them. Nothing is flushed beyond what
// -fsync always already made durable, and no snapshot is taken.
func (h *Harness) Kill(i int) error {
	hn := h.Nodes[i]
	if hn.Stack == nil {
		return nil
	}
	// Close (not Shutdown): in-flight requests are severed, not drained.
	hn.httpSrv.Close()
	<-hn.served
	err := hn.Stack.Close(context.Background())
	hn.Stack, hn.httpSrv = nil, nil
	return err
}

// Restart brings a killed node back on its original address, rebuilding
// all state from its WAL and handoff directories.
func (h *Harness) Restart(i int) error {
	hn := h.Nodes[i]
	if hn.Stack != nil {
		return nil
	}
	ln, err := net.Listen("tcp", hn.addr)
	if err != nil {
		return fmt.Errorf("rebind %s on %s: %w", hn.ID, hn.addr, err)
	}
	return h.boot(hn, ln)
}

// LiveURLs returns the base URLs of currently alive nodes, in node
// order.
func (h *Harness) LiveURLs() []string {
	var out []string
	for _, hn := range h.Nodes {
		if hn.Alive() {
			out = append(out, hn.URL)
		}
	}
	return out
}

// pendingHints sums the hint backlog across live nodes.
func (h *Harness) pendingHints() int64 {
	var n int64
	for _, hn := range h.Nodes {
		if hn.Alive() && hn.Stack.Node != nil {
			n += hn.Stack.Node.Stats().HintBacklog
		}
	}
	return n
}

// WaitDrained polls until no live node has pending hints (or the
// context expires).
func (h *Harness) WaitDrained(ctx context.Context) error {
	for {
		if h.pendingHints() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("hints not drained: %d pending: %w", h.pendingHints(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ClusterEvents is the "recovered cluster-wide" side of the invariant,
// read from disk: each node's WAL directory is replayed, read-only, into
// a fresh store of its own, and the map counts per idempotency key the
// nodes whose recovered store holds it — so tests can assert both
// coverage (>=1) and exactly-once (==1).
func (h *Harness) ClusterEvents() map[string]int {
	h.t.Helper()
	out := make(map[string]int)
	for _, hn := range h.Nodes {
		recovered := beacon.NewStore()
		recovered.AddObserver(func(e beacon.Event) { out[e.Key()]++ })
		if _, err := beacon.ReplayWALDir(hn.cfg.WALDir, recovered); err != nil {
			h.t.Fatalf("replay %s: %v", hn.ID, err)
		}
	}
	return out
}

// Close tears the whole cluster down.
func (h *Harness) Close() error {
	var errs []error
	for i := range h.Nodes {
		errs = append(errs, h.Kill(i))
	}
	return errors.Join(errs...)
}
