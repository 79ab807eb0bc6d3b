package cluster_test

// Trace-propagation-under-faults suite: every beacon a client roots a
// trace for must land in the shared span store as ONE connected tree —
// exactly one root, no orphan spans, no duplicate span IDs, and at
// least one store.apply leaf proving the beacon reached a durable
// store — no matter what the cluster network does in between: retry
// storms, handoff-then-drain, same-address restarts. The harness
// shares a single SpanStore across all nodes (the in-process stand-in
// for a central collector), so spans survive node kills and a trace
// that crosses nodes is assertable in one place.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/collector/collectortest"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/simrand"
)

// traceHarness starts a 3-node cluster with tracing at sample rate 1
// feeding one shared span store.
func traceHarness(t *testing.T, mut func(*collectortest.HarnessConfig)) (*collectortest.Harness, *obs.SpanStore) {
	t.Helper()
	store := obs.NewSpanStore(1 << 16)
	cfg := collectortest.HarnessConfig{Nodes: 3, Base: fastNode()}
	cfg.Base.TraceSample, cfg.Base.Test.Spans = 1, store
	if mut != nil {
		mut(&cfg)
	}
	return collectortest.StartHarness(t, cfg), store
}

// clientTracer builds the client-side tracer that roots each beacon's
// trace, recording into the same shared store the cluster uses.
func clientTracer(store *obs.SpanStore) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Node: "client", SampleRate: 1, Store: store})
}

// sendTraced submits sweep impressions [from, to) round-robin across
// the live nodes, each batch under a fresh client-rooted trace, and
// records acked batches as traceID -> label. Unacked batches may leave
// partial traces; only acked ones carry the connectivity guarantee.
func sendTraced(t *testing.T, h *collectortest.Harness, ct *obs.Tracer, from, to int, acked map[string]string) {
	t.Helper()
	urls := h.LiveURLs()
	if len(urls) == 0 {
		t.Fatal("no live nodes to send to")
	}
	sinks := make([]*beacon.HTTPSink, len(urls))
	for i, u := range urls {
		sinks[i] = &beacon.HTTPSink{BaseURL: u, Retries: 2, Timeout: 2 * time.Second, Spans: ct}
	}
	for i := from; i < to; i++ {
		root := ct.StartSpan(obs.SpanContext{}, "client.submit")
		events := sweepEvents(i)
		for j := range events {
			events[j].Trace = root.TraceParent()
		}
		err := sinks[i%len(sinks)].SubmitBatch(events)
		if err != nil {
			root.SetError(err.Error())
		}
		root.End()
		if err == nil {
			acked[root.Context().TraceID.String()] = fmt.Sprintf("sweep-%05d", i)
		}
	}
}

// connectivityProblems checks one trace's span set for tree-shape
// invariants: exactly one root, every parent present, no duplicate
// span IDs.
func connectivityProblems(spans []obs.SpanRecord) []string {
	if len(spans) == 0 {
		return []string{"no spans recorded"}
	}
	ids := make(map[string]int, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID]++
	}
	var probs []string
	for id, n := range ids {
		if n > 1 {
			probs = append(probs, fmt.Sprintf("span id %s appears %d times", id, n))
		}
	}
	roots := 0
	for _, sp := range spans {
		if sp.ParentID == "" {
			roots++
		} else if ids[sp.ParentID] == 0 {
			probs = append(probs, fmt.Sprintf("orphan: %s on %s (span %s) references missing parent %s",
				sp.Name, sp.Node, sp.SpanID, sp.ParentID))
		}
	}
	if roots != 1 {
		probs = append(probs, fmt.Sprintf("expected exactly 1 root span, got %d", roots))
	}
	return probs
}

// traceProblems adds the beacon-delivery invariant on top of
// connectivity: a durable store.apply leaf must exist, proving the
// acked beacon reached a store.
func traceProblems(spans []obs.SpanRecord) []string {
	probs := connectivityProblems(spans)
	applies := 0
	for _, sp := range spans {
		if sp.Name == "store.apply" {
			applies++
		}
	}
	if applies == 0 {
		probs = append(probs, "no store.apply span: beacon never provably reached a store")
	}
	return probs
}

// waitConnectedTraces polls until every acked trace satisfies the
// connectivity invariants. Polling is required: span End()s race the
// client's ack (a server records its ingest span after writing the
// response) and drained hints apply long after the original ack.
func waitConnectedTraces(t *testing.T, store *obs.SpanStore, acked map[string]string) {
	t.Helper()
	if len(acked) == 0 {
		t.Fatal("no traced batches were acked; suite exercised nothing")
	}
	deadline := time.Now().Add(30 * time.Second)
	var problems []string
	for {
		problems = problems[:0]
		for tid, label := range acked {
			for _, p := range traceProblems(store.Trace(tid)) {
				problems = append(problems, fmt.Sprintf("trace %s (%s): %s", tid, label, p))
			}
		}
		if len(problems) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	t.Fatalf("%d trace-propagation problems across %d acked traces", len(problems), len(acked))
}

// spanNames returns the sorted distinct span names across all traces in
// acked — used to assert a scenario actually exercised the hop it
// targets (a handoff test that never hinted proves nothing).
func spanNames(store *obs.SpanStore, acked map[string]string) map[string]int {
	out := make(map[string]int)
	for tid := range acked {
		for _, sp := range store.Trace(tid) {
			out[sp.Name]++
		}
	}
	return out
}

func TestTracePropagationUnderRetryStorm(t *testing.T) {
	// Inter-node links inject 503s and torn responses (delivered but
	// unacked), so forwards retry, breakers trip, probes flap, and a
	// slice of traffic degrades to hint-then-drain — all while the
	// client-facing ingest stays clean. Every acked trace must still be
	// one connected tree.
	h, store := traceHarness(t, func(c *collectortest.HarnessConfig) {
		c.FaultTransport = func(next http.RoundTripper) http.RoundTripper {
			rt := faults.NewRoundTripper(next, simrand.New(1109).Fork("trace-storm"), faults.Profile{
				Error:   0.25,
				Partial: 0.10,
			})
			rt.SetSleep(nil) // count injected latency, don't pay it
			return rt
		}
	})
	ct := clientTracer(store)

	acked := make(map[string]string)
	sendTraced(t, h, ct, 0, 60, acked)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	waitConnectedTraces(t, store, acked)

	names := spanNames(store, acked)
	for _, want := range []string{"client.submit", "sink.deliver", "ingest.events", "store.apply"} {
		if names[want] == 0 {
			t.Errorf("no %q spans across %d traces; storm did not exercise the full chain", want, len(acked))
		}
	}
	t.Logf("retry storm: %d acked traces connected; span mix %v", len(acked), names)
}

func TestTracePropagationHandoffThenDrain(t *testing.T) {
	// Kill one node, ingest its share through the survivors (degrading
	// to durable hints), restart it, and let the drain replay. The
	// replayed beacons' store.apply spans must still parent back —
	// through handoff.drain and the WAL-persisted handoff.hint context —
	// to the client root minted before the outage.
	h, store := traceHarness(t, nil)
	ct := clientTracer(store)
	acked := make(map[string]string)

	if err := h.Kill(2); err != nil {
		t.Fatal(err)
	}
	waitState(t, h, 0, "n2", cluster.PeerDead)

	sendTraced(t, h, ct, 0, 60, acked)

	if err := h.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitState(t, h, 0, "n2", cluster.PeerAlive)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	waitConnectedTraces(t, store, acked)

	names := spanNames(store, acked)
	if names["handoff.hint"] == 0 || names["handoff.drain"] == 0 {
		t.Fatalf("handoff path not exercised: span mix %v", names)
	}
	// The tracing guarantee rides on top of delivery, not instead of it:
	// every traced impression must actually be stored cluster-wide.
	counts := h.ClusterEvents()
	for tid, label := range acked {
		found := false
		for key := range counts {
			if strings.Contains(key, label) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace %s (%s): no stored event for impression", tid, label)
		}
	}
	t.Logf("handoff drain: %d acked traces connected; span mix %v", len(acked), names)
}

func TestTracePropagationAcrossRestarts(t *testing.T) {
	// The kill sweep from the acceptance suite, traced: each node is
	// killed and restarted on its same address while traffic continues.
	// Traces must stay connected across restarts in both roles — as the
	// hinting survivor and as the restarted owner receiving drains.
	h, store := traceHarness(t, nil)
	ct := clientTracer(store)
	acked := make(map[string]string)

	const batch = 30
	offset := 0
	for victim := 0; victim < 3; victim++ {
		sendTraced(t, h, ct, offset, offset+batch, acked)
		offset += batch

		if err := h.Kill(victim); err != nil {
			t.Fatalf("kill n%d: %v", victim, err)
		}
		observer := (victim + 1) % 3
		waitState(t, h, observer, fmt.Sprintf("n%d", victim), cluster.PeerDead)

		sendTraced(t, h, ct, offset, offset+batch, acked)
		offset += batch

		if err := h.Restart(victim); err != nil {
			t.Fatalf("restart n%d: %v", victim, err)
		}
		waitState(t, h, observer, fmt.Sprintf("n%d", victim), cluster.PeerAlive)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	waitConnectedTraces(t, store, acked)
	t.Logf("restart sweep: %d acked traces connected across 3 kills; span mix %v",
		len(acked), spanNames(store, acked))
}

func TestTracePropagationFederatedReport(t *testing.T) {
	// A federated /report fans out to every peer; the fan-out and each
	// per-peer fetch must join the caller's trace as report.federate and
	// federate.fetch children.
	h, store := traceHarness(t, nil)
	ct := clientTracer(store)

	root := ct.StartSpan(obs.SpanContext{}, "client.report")
	req, err := http.NewRequest(http.MethodGet, h.Nodes[0].URL+"/report?federated=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceParentHeader, root.TraceParent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federated report status %d", resp.StatusCode)
	}

	tid := root.Context().TraceID.String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		names := map[string]int{}
		for _, sp := range store.Trace(tid) {
			names[sp.Name]++
		}
		if names["report.federate"] == 1 && names["federate.fetch"] == 2 {
			if probs := connectivityProblems(store.Trace(tid)); len(probs) > 0 {
				t.Fatalf("federated trace malformed: %v", probs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated trace incomplete: span mix %v", names)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
