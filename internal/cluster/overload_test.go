package cluster_test

// The overload acceptance suite (make overload-chaos): a 3-node cluster
// with admission control enabled takes a 10× load ramp concurrent with
// a partition-heal drain storm, and must (1) lose no acked beacon, (2)
// keep live goodput inside a band of the pre-ramp baseline, (3) shed
// low-priority classes measurably harder than live ingest, and (4)
// report every node /readyz 200 within a bounded window once the load
// subsides.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/admission"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/collector/collectortest"
	"qtag/internal/wal"
)

// overloadHarness is fastHarness with the admission limiter tuned so a
// burst of in-process workers actually trips it: a small ceiling.
func overloadHarness(t *testing.T) *collectortest.Harness {
	t.Helper()
	base := fastNode()
	// MinLimit is the goodput floor: under a sustained ramp the
	// gradient drives the limit down toward it (cross-node forwards
	// inherit their peers' queuing latency, so the signal saturates),
	// and the floor is what keeps "degrade" from becoming "collapse".
	base.AdmissionMinInflight, base.AdmissionMaxInflight = 8, 64
	// A shedding peer's Retry-After is the origin's forward-retry
	// backoff, i.e. how long an admitted forward squats on its
	// origin's admission slot before failing over to hinted handoff.
	// Keep it short so overload degrades to shed-and-hint instead of
	// slot starvation.
	base.RetryAfter = 25 * time.Millisecond
	return collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 3, Base: base})
}

// ackedSet is a concurrent set of acked idempotency keys.
type ackedSet struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (s *ackedSet) add(key string) {
	s.mu.Lock()
	s.keys[key] = true
	s.mu.Unlock()
}

// runLivePhase floods the cluster with unique live beacons from workers
// concurrent senders for d, round-robin across nodes, and returns
// (acked, shed) counts. Acked keys land in set. No retries: a 503 is a
// shed, and the test's loss invariant only covers acked events.
func runLivePhase(t *testing.T, h *collectortest.Harness, prefix string, workers int, d time.Duration, set *ackedSet) (acked, shed int64) {
	t.Helper()
	urls := h.LiveURLs()
	var ackedN, shedN atomic.Int64
	var seq atomic.Int64
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := &beacon.HTTPSink{
				BaseURL: urls[w%len(urls)],
				Retries: 0,
				Timeout: 2 * time.Second,
			}
			for time.Now().Before(stop) {
				i := seq.Add(1)
				e := beacon.Event{
					ImpressionID: fmt.Sprintf("%s-%07d", prefix, i),
					CampaignID:   "c1",
					Source:       beacon.SourceQTag,
					Type:         beacon.EventLoaded,
					At:           time.Unix(1600000000, 0).UTC(),
				}
				if err := sink.Submit(e); err == nil {
					ackedN.Add(1)
					set.add(e.Key())
				} else {
					shedN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return ackedN.Load(), shedN.Load()
}

// hammer spams url+path with plain GETs from workers goroutines until
// stop, returning how many answered 503. Used to keep the federate and
// debug classes under offered load during the ramp.
func hammer(stop time.Time, workers int, urls []string, path string, shed *atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp, err := client.Get(urls[w%len(urls)] + path)
				if err != nil {
					continue
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					shed.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	return &wg
}

func TestOverloadRampSurvivesWithPriorityShedding(t *testing.T) {
	h := overloadHarness(t)
	set := &ackedSet{keys: make(map[string]bool)}

	// Phase 1 — baseline: light load, no shedding expected.
	const baseWorkers = 4
	baseDur := 800 * time.Millisecond
	baseAcked, baseShed := runLivePhase(t, h, "base", baseWorkers, baseDur, set)
	if baseAcked == 0 {
		t.Fatal("baseline acked nothing; harness is broken")
	}
	t.Logf("baseline: %d acked, %d shed over %v", baseAcked, baseShed, baseDur)

	// Phase 2 — seed the drain storm: partition n0 ↔ n2 and push
	// n2-owned traffic through n0 so hints pile up for replay at heal.
	h.Net.CutBoth("n0", "n2")
	waitState(t, h, 0, "n2", cluster.PeerDead)
	ring := h.Nodes[0].Stack.Node.Ring()
	seedSink := &beacon.HTTPSink{BaseURL: h.Nodes[0].URL, Retries: 2, Timeout: 2 * time.Second}
	hinted := 0
	for i := 0; hinted < 120; i++ {
		imp := fmt.Sprintf("storm-%06d", i)
		if ring.Owner(imp) != "n2" {
			continue
		}
		e := beacon.Event{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag,
			Type: beacon.EventLoaded, At: time.Unix(1600000000, 0).UTC()}
		if err := seedSink.Submit(e); err != nil {
			t.Fatalf("seed submit: %v", err)
		}
		set.add(e.Key())
		hinted++
	}
	if h.Nodes[0].Stack.Node.Stats().HintBacklog == 0 {
		t.Fatal("partition seeded no hints; drain storm would be empty")
	}

	// Phase 3 — the ramp: heal the partition (kicking the drain storm at
	// n2's front door) and simultaneously offer 10× live load plus
	// sustained federate- and debug-class traffic.
	h.Net.HealBoth("n0", "n2")
	rampDur := 1500 * time.Millisecond
	stop := time.Now().Add(rampDur)
	var fedShed, dbgShed atomic.Int64
	fedWG := hammer(stop, 3, h.LiveURLs(), "/report", &fedShed)
	dbgWG := hammer(stop, 3, h.LiveURLs(), "/debug/traces", &dbgShed)
	rampAcked, rampShed := runLivePhase(t, h, "ramp", 10*baseWorkers, rampDur, set)
	fedWG.Wait()
	dbgWG.Wait()
	t.Logf("ramp: live %d acked / %d shed; federate %d shed; debug %d shed",
		rampAcked, rampShed, fedShed.Load(), dbgShed.Load())

	// Goodput band: the admitted-work rate under 10× offered load stays
	// within a generous band of baseline — overload degrades to shedding,
	// not collapse. (Rates, since the phases run for different windows.)
	baseRate := float64(baseAcked) / baseDur.Seconds()
	rampRate := float64(rampAcked) / rampDur.Seconds()
	if rampRate < 0.15*baseRate {
		t.Fatalf("goodput collapsed under ramp: %.0f/s vs baseline %.0f/s", rampRate, baseRate)
	}

	// Priority order: the cluster shed low-priority work during the ramp
	// while continuing to admit live ingest, and live's shed *rate*
	// stayed below the background classes'.
	var liveAdmitted, liveShedC, lowShed int64
	var lowOffered int64
	for _, hn := range h.Nodes {
		ctrl := hn.Stack.Admission
		liveAdmitted += ctrl.Admitted(admission.ClassLive)
		liveShedC += ctrl.Shed(admission.ClassLive)
		for _, cl := range []admission.Class{admission.ClassDrain, admission.ClassFederate, admission.ClassDebug} {
			lowShed += ctrl.Shed(cl)
			lowOffered += ctrl.Shed(cl) + ctrl.Admitted(cl)
		}
	}
	if liveAdmitted == 0 {
		t.Fatal("no live requests admitted during the test")
	}
	if lowShed == 0 {
		t.Fatal("overload shed no low-priority (drain/federate/debug) requests; priority classes untested")
	}
	liveRate := float64(liveShedC) / float64(liveShedC+liveAdmitted)
	lowRate := float64(lowShed) / float64(lowOffered)
	if lowRate <= liveRate {
		t.Fatalf("low-priority shed rate %.3f not above live shed rate %.3f", lowRate, liveRate)
	}
	t.Logf("shed rates: live %.3f, low-priority %.3f (admitted live %d)", liveRate, lowRate, liveAdmitted)

	// Phase 4 — recovery: with the load gone, every node must answer
	// /readyz 200 within a bounded window (RecoveryHold + slack), and
	// the drain storm must finish placing every hint.
	readyDeadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for _, hn := range h.Nodes {
		for {
			resp, err := client.Get(hn.URL + "/readyz")
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					break
				}
			}
			if time.Now().After(readyDeadline) {
				t.Fatalf("node %s not ready within bounded window after load subsided", hn.ID)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}

	// The invariant: every acked beacon — baseline, storm seed, or ramp
	// survivor — is counted exactly once cluster-wide. Shed requests were
	// never acked, so they owe nothing.
	counts := h.ClusterEvents()
	missing, duplicated := 0, 0
	set.mu.Lock()
	defer set.mu.Unlock()
	for key := range set.keys {
		switch counts[key] {
		case 1:
		case 0:
			missing++
		default:
			duplicated++
		}
	}
	if missing > 0 || duplicated > 0 {
		t.Fatalf("invariant broken: %d acked lost, %d duplicated (of %d acked)", missing, duplicated, len(set.keys))
	}
	t.Logf("overload ramp: %d acked events all recovered exactly once", len(set.keys))
}

// TestOverloadDrainReplaysArriveMarked proves the hint-replay path
// self-identifies: after a partition heals, the recovering owner's
// admission controller sees the replayed beacons in ClassDrain (the
// X-Qtag-Class header set by the drain sink), which is what lets it
// shed a drain storm before fresh ingest.
func TestOverloadDrainReplaysArriveMarked(t *testing.T) {
	h := overloadHarness(t)

	h.Net.CutBoth("n0", "n2")
	waitState(t, h, 0, "n2", cluster.PeerDead)
	ring := h.Nodes[0].Stack.Node.Ring()
	sink := &beacon.HTTPSink{BaseURL: h.Nodes[0].URL, Retries: 2, Timeout: 2 * time.Second}
	sent := 0
	for i := 0; sent < 40; i++ {
		imp := fmt.Sprintf("marked-%06d", i)
		if ring.Owner(imp) != "n2" {
			continue
		}
		e := beacon.Event{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag,
			Type: beacon.EventLoaded, At: time.Unix(1600000000, 0).UTC()}
		if err := sink.Submit(e); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	h.Net.HealBoth("n0", "n2")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}

	if got := h.Nodes[2].Stack.Admission.Admitted(admission.ClassDrain); got == 0 {
		t.Fatal("n2 admitted no drain-class requests; hint replays arrived unmarked")
	}
	if got := h.Nodes[2].Stack.Admission.Admitted(admission.ClassLive); got != 0 {
		// Only replays hit n2 in this test; anything counted live means
		// the class header was dropped somewhere on the replay path.
		t.Fatalf("n2 admitted %d live-class requests, want 0 (replays only)", got)
	}
}

// TestOverloadBackstopProtectsCluster proves the journal-backlog
// backstop still works behind the adaptive limiter: with the backlog
// ceiling at one record and one accepted record never fsynced, live
// ingest sheds 503 even though the limiter itself has spare capacity,
// and /readyz reports the brown-out.
func TestOverloadBackstopProtectsCluster(t *testing.T) {
	base := collectortest.NodeConfig()
	base.ShedPending = 1
	base.Fsync, base.FsyncEvery = wal.FsyncInterval, time.Hour
	h := collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 1, Base: base})

	// Under -fsync interval an hour long, the accepted record stays
	// pending: every request after it sheds, modelling a journal that
	// cannot keep up at all.
	sink := &beacon.HTTPSink{BaseURL: h.Nodes[0].URL, Retries: 0, Timeout: time.Second}
	if err := sink.Submit(beacon.Event{ImpressionID: "bs-0", CampaignID: "c1",
		Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: time.Unix(1000, 0)}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err := sink.Submit(beacon.Event{ImpressionID: "bs-1", CampaignID: "c1",
		Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: time.Unix(1000, 0)})
	if err == nil {
		t.Fatal("submit succeeded under tripped backstop, want 503 shed")
	}
	if got := h.Nodes[0].Stack.Admission.Shed(admission.ClassLive); got == 0 {
		t.Fatal("backstop shed not attributed to live class")
	}

	// Reads survive the backstop: it guards the WAL, not the query path.
	resp, err := http.Get(h.Nodes[0].URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/report under backstop = %d, want 200", resp.StatusCode)
	}

	// And the node advertises the brown-out on /readyz.
	resp, err = http.Get(h.Nodes[0].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz under backstop = %d, want 503", resp.StatusCode)
	}
}
