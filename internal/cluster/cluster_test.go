package cluster_test

// The acceptance suite for cluster mode: deterministic whole-node kill
// and partition sweeps over a real 3-node in-process cluster (real
// sockets, real WALs), proving the invariant the layer exists for —
// every beacon acked by any live node is counted exactly once
// cluster-wide after recovery, hinted-handoff replay included.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/report"
)

// fastNode is a harness node's Config probing its peers every 20 ms,
// so failover takes a fraction of a second.
func fastNode() collector.Config {
	cfg := collectortest.NodeConfig()
	cfg.ProbeEvery = 20 * time.Millisecond
	return cfg
}

// fastHarness starts a 3-node cluster of fastNode stacks.
func fastHarness(t *testing.T) *collectortest.Harness {
	t.Helper()
	return collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 3, Base: fastNode()})
}

// sweepEvent builds the i-th impression's event pair: a served beacon
// and a qtag loaded check-in.
func sweepEvents(i int) []beacon.Event {
	imp := fmt.Sprintf("sweep-%05d", i)
	at := time.Unix(1500000000, 0).UTC()
	return []beacon.Event{
		{ImpressionID: imp, CampaignID: "c1", Type: beacon.EventServed, At: at},
		{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: at.Add(time.Second)},
	}
}

// sendAcked submits events round-robin across the currently live nodes
// and records which were acked (HTTP 200 end-to-end). Unacked events
// are allowed to be lost; acked ones are not.
func sendAcked(t *testing.T, h *collectortest.Harness, from, to int, acked map[string]bool) {
	t.Helper()
	urls := h.LiveURLs()
	if len(urls) == 0 {
		t.Fatal("no live nodes to send to")
	}
	sinks := make([]*beacon.HTTPSink, len(urls))
	for i, u := range urls {
		sinks[i] = &beacon.HTTPSink{BaseURL: u, Retries: 2, Timeout: 2 * time.Second}
	}
	for i := from; i < to; i++ {
		sink := sinks[i%len(sinks)]
		for _, e := range sweepEvents(i) {
			if err := sink.Submit(e); err == nil {
				acked[e.Key()] = true
			}
		}
	}
}

// waitState polls until observer's detector sees peer in want.
func waitState(t *testing.T, h *collectortest.Harness, observer int, peer string, want cluster.PeerState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		hn := h.Nodes[observer]
		if hn.Alive() && hn.Stack.Node.Detector().State(peer) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %d never saw %s as %v", observer, peer, want)
}

func TestClusterKillSweepNoLossNoDuplicates(t *testing.T) {
	h := fastHarness(t)
	acked := make(map[string]bool)

	// The sweep: kill each node in turn at a deterministic traffic
	// offset, keep ingesting through the survivors (the victim's share
	// degrades to hinted handoff), restart the victim, and only then
	// move to the next victim. 3 victims × (pre-kill + during-kill)
	// batches.
	const batch = 80
	offset := 0
	for victim := 0; victim < 3; victim++ {
		sendAcked(t, h, offset, offset+batch, acked)
		offset += batch

		if err := h.Kill(victim); err != nil {
			t.Fatalf("kill n%d: %v", victim, err)
		}
		// Wait until a survivor marks the victim dead so its share of
		// the traffic below definitively exercises the hint path.
		observer := (victim + 1) % 3
		waitState(t, h, observer, fmt.Sprintf("n%d", victim), cluster.PeerDead)

		sendAcked(t, h, offset, offset+batch, acked)
		offset += batch

		if err := h.Restart(victim); err != nil {
			t.Fatalf("restart n%d: %v", victim, err)
		}
		waitState(t, h, observer, fmt.Sprintf("n%d", victim), cluster.PeerAlive)
	}

	// Let every hint drain, then check the invariant.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}

	if len(acked) == 0 {
		t.Fatal("no events were acked; sweep exercised nothing")
	}
	counts := h.ClusterEvents()
	missing, duplicated := 0, 0
	for key := range acked {
		switch counts[key] {
		case 1:
		case 0:
			missing++
			t.Errorf("acked event lost: %s", key)
		default:
			duplicated++
			t.Errorf("acked event counted %d times: %s", counts[key], key)
		}
	}
	// Zero duplicates holds for UNacked events too: ownership is unique,
	// so no key may appear in two stores.
	for key, c := range counts {
		if c > 1 {
			t.Errorf("event stored %d times cluster-wide: %s", c, key)
		}
	}
	if missing > 0 || duplicated > 0 {
		t.Fatalf("invariant broken: %d acked lost, %d duplicated (of %d acked)", missing, duplicated, len(acked))
	}
	t.Logf("sweep: %d events acked across 3 kills, all recovered exactly once", len(acked))
}

func TestClusterPartitionHealsAndDrains(t *testing.T) {
	h := fastHarness(t)

	// Cut n0 ↔ n2 both ways. n0 can still serve ingest; its n2-owned
	// share must degrade to hints instead of erroring.
	h.Net.CutBoth("n0", "n2")
	waitState(t, h, 0, "n2", cluster.PeerDead)

	acked := make(map[string]bool)
	sink := &beacon.HTTPSink{BaseURL: h.Nodes[0].URL, Retries: 2, Timeout: 2 * time.Second}
	n2owned := 0
	ring := h.Nodes[0].Stack.Node.Ring()
	for i := 0; i < 150; i++ {
		for _, e := range sweepEvents(i) {
			if err := sink.Submit(e); err != nil {
				t.Fatalf("submit during partition failed: %v", err)
			}
			acked[e.Key()] = true
			if ring.Owner(e.ImpressionID) == "n2" {
				n2owned++
			}
		}
	}
	if n2owned == 0 {
		t.Fatal("no events owned by the partitioned node; sweep proves nothing")
	}
	if got := h.Nodes[0].Stack.Node.Stats().Hinted; got == 0 {
		t.Fatal("partition produced no hints")
	}

	h.Net.HealBoth("n0", "n2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}

	counts := h.ClusterEvents()
	for key := range acked {
		if counts[key] != 1 {
			t.Fatalf("acked event %s counted %d times after heal", key, counts[key])
		}
	}
}

func TestClusterFederatedReportMergesAndDegrades(t *testing.T) {
	h := fastHarness(t)
	acked := make(map[string]bool)
	sendAcked(t, h, 0, 120, acked)

	fetch := func(url string) (report.ViewabilityReport, int) {
		resp, err := http.Get(url + "/report?federated=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep report.ViewabilityReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep, resp.StatusCode
	}

	// Healthy cluster: all three nodes contribute, nothing degraded,
	// and the merged counts equal ground truth summed over the stores.
	rep, status := fetch(h.Nodes[0].URL)
	if status != http.StatusOK {
		t.Fatalf("federated report status %d", status)
	}
	if len(rep.Nodes) != 3 || len(rep.Degraded) != 0 {
		t.Fatalf("nodes=%v degraded=%v, want 3 nodes none degraded", rep.Nodes, rep.Degraded)
	}
	var wantMeasured int64
	for _, hn := range h.Nodes {
		wantMeasured += hn.Stack.Aggregate.Totals().Measured[beacon.SourceQTag]
	}
	if len(rep.Campaigns.Rows) != 1 {
		t.Fatalf("federated rows = %d, want 1", len(rep.Campaigns.Rows))
	}
	if got := rep.Campaigns.Rows[0].Sources["qtag"].Measured; got != wantMeasured {
		t.Fatalf("federated measured = %d, want %d (sum of the nodes' counts)", got, wantMeasured)
	}

	// Kill one node: the report must stay HTTP 200, name the dead node
	// in degraded, and shrink to the survivors' slice — partial result,
	// not an error.
	if err := h.Kill(2); err != nil {
		t.Fatal(err)
	}
	rep, status = fetch(h.Nodes[0].URL)
	if status != http.StatusOK {
		t.Fatalf("degraded federated report status %d, want 200", status)
	}
	if len(rep.Degraded) != 1 || rep.Degraded[0] != "n2" {
		t.Fatalf("degraded = %v, want [n2]", rep.Degraded)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("nodes = %v, want the 2 survivors", rep.Nodes)
	}
	survivors := h.Nodes[0].Stack.Aggregate.Totals().Measured[beacon.SourceQTag] + h.Nodes[1].Stack.Aggregate.Totals().Measured[beacon.SourceQTag]
	if got := rep.Campaigns.Rows[0].Sources["qtag"].Measured; got != survivors {
		t.Fatalf("degraded federated measured = %d, want %d", got, survivors)
	}
}

// A cluster whose nodes guard /report with -stats-key federates under
// the caller's key: the fan-out asks each peer with the credentials it
// was asked with, in either form, so no peer answers 401 and none is
// degraded. Without a key the federated report is refused like the
// plain one.
func TestClusterFederatedReportUnderStatsKey(t *testing.T) {
	base := fastNode()
	base.StatsKey = "s3cret"
	h := collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 2, Base: base})
	sendAcked(t, h, 0, 40, make(map[string]bool))
	var want int64
	for _, hn := range h.Nodes {
		want += hn.Stack.Aggregate.Totals().Measured[beacon.SourceQTag]
	}

	get := func(path, auth string) (report.ViewabilityReport, int) {
		req, err := http.NewRequest(http.MethodGet, h.Nodes[0].URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep report.ViewabilityReport
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Fatal(err)
			}
		}
		return rep, resp.StatusCode
	}
	if _, status := get("/report?federated=1", ""); status != http.StatusUnauthorized {
		t.Fatalf("federated report without a key: status %d, want 401", status)
	}
	for _, c := range []struct{ path, auth string }{
		{"/report?federated=1&key=s3cret", ""},
		{"/report?federated=1", "Bearer s3cret"},
	} {
		rep, status := get(c.path, c.auth)
		if status != http.StatusOK || len(rep.Nodes) != 2 || len(rep.Degraded) != 0 {
			t.Fatalf("GET %s (Authorization %q): status %d, nodes %v, degraded %v; want 200 from both nodes",
				c.path, c.auth, status, rep.Nodes, rep.Degraded)
		}
		if len(rep.Campaigns.Rows) != 1 || rep.Campaigns.Rows[0].Sources["qtag"].Measured != want {
			t.Fatalf("GET %s: rows %+v, want one row measuring %d", c.path, rep.Campaigns.Rows, want)
		}
	}
}

func TestClusterReadinessReflectsHintBacklog(t *testing.T) {
	base := fastNode()
	base.ReadyHintBacklog = 5
	h := collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 2, Base: base})

	readyz := func() int {
		resp, rerr := http.Get(h.Nodes[0].URL + "/readyz")
		if rerr != nil {
			t.Fatal(rerr)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("fresh node readyz = %d, want 200", got)
	}

	// Partition n1 away and push enough n1-owned traffic through n0 to
	// exceed the backlog threshold.
	h.Net.CutBoth("n0", "n1")
	waitState(t, h, 0, "n1", cluster.PeerDead)
	ring := h.Nodes[0].Stack.Node.Ring()
	sink := &beacon.HTTPSink{BaseURL: h.Nodes[0].URL, Retries: 1, Timeout: time.Second}
	sent := 0
	for i := 0; sent < 10; i++ {
		imp := fmt.Sprintf("ready-%05d", i)
		if ring.Owner(imp) != "n1" {
			continue
		}
		e := beacon.Event{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag,
			Type: beacon.EventLoaded, At: time.Unix(1000, 0)}
		if err := sink.Submit(e); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with backlog %d = %d, want 503", h.Nodes[0].Stack.Node.Stats().HintBacklog, got)
	}
	// Liveness is unaffected: /healthz keeps saying 200 so the prober
	// doesn't kill a node that is merely backlogged.
	resp, err := http.Get(h.Nodes[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during backlog = %d, want 200", resp.StatusCode)
	}

	// Heal; once hints drain the node reports ready again.
	h.Net.HealBoth("n0", "n1")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("readyz after drain = %d, want 200", got)
	}
}
