package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qtag/internal/beacon"
)

// keysOwnedBy generates n impression IDs the given ring assigns to
// owner — deterministic probing, no randomness.
func keysOwnedBy(t *testing.T, r *Ring, owner string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		key := fmt.Sprintf("imp-%06d", i)
		if r.Owner(key) == owner {
			out = append(out, key)
		}
		if i > 1000000 {
			t.Fatalf("could not find %d keys owned by %s", n, owner)
		}
	}
	return out
}

func nodeEvent(imp string) beacon.Event {
	return beacon.Event{
		ImpressionID: imp,
		CampaignID:   "c1",
		Source:       beacon.SourceQTag,
		Type:         beacon.EventLoaded,
		At:           time.Unix(1000, 0),
	}
}

// startPeerServer runs a real beacon server for a peer and returns its
// store and URL.
func startPeerServer(t *testing.T) (*beacon.Store, string) {
	t.Helper()
	store := beacon.NewStore()
	srv := httptest.NewServer(beacon.NewServer(store))
	t.Cleanup(srv.Close)
	return store, srv.URL
}

func TestNodeRoutesLocalAndForwards(t *testing.T) {
	peerStore, peerURL := startPeerServer(t)
	local := beacon.NewStore()
	n, err := NewNode(Config{
		Self:       "a",
		Peers:      map[string]string{"b": peerURL},
		Local:      local,
		HandoffDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	mine := keysOwnedBy(t, n.Ring(), "a", 5)
	theirs := keysOwnedBy(t, n.Ring(), "b", 5)
	for _, k := range append(append([]string{}, mine...), theirs...) {
		if err := n.Submit(nodeEvent(k)); err != nil {
			t.Fatalf("submit %s: %v", k, err)
		}
	}
	if local.Len() != 5 {
		t.Fatalf("local store holds %d, want 5", local.Len())
	}
	if peerStore.Len() != 5 {
		t.Fatalf("peer store holds %d, want 5", peerStore.Len())
	}
	st := n.Stats()
	if st.LocalAccepted != 5 || st.Forwarded != 5 || st.Hinted != 0 {
		t.Fatalf("stats = %+v, want 5 local / 5 forwarded / 0 hinted", st)
	}
}

func TestNodeHintsWhenPeerUnreachable(t *testing.T) {
	local := beacon.NewStore()
	n, err := NewNode(Config{
		Self:           "a",
		Peers:          map[string]string{"b": "http://127.0.0.1:1"},
		Local:          local,
		HandoffDir:     t.TempDir(),
		ForwardTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	theirs := keysOwnedBy(t, n.Ring(), "b", 3)
	for _, k := range theirs {
		// The forward fails (connection refused); the hint append makes
		// the ack legitimate anyway.
		if err := n.Submit(nodeEvent(k)); err != nil {
			t.Fatalf("submit %s should ack via hint, got %v", k, err)
		}
	}
	st := n.Stats()
	if st.Hinted != 3 || st.HintBacklog != 3 {
		t.Fatalf("stats = %+v, want 3 hinted / 3 backlog", st)
	}
	if local.Len() != 0 {
		t.Fatalf("local store holds %d remote-owned events", local.Len())
	}
}

func TestNodeHintReplayOnRecovery(t *testing.T) {
	local := beacon.NewStore()
	// Peer starts dead (no listener); we bring a real server up at a
	// fixed address afterwards by starting the listener first.
	peerStore := beacon.NewStore()
	peerSrv := httptest.NewUnstartedServer(beacon.NewServer(peerStore))
	peerURL := "http://" + peerSrv.Listener.Addr().String()

	n, err := NewNode(Config{
		Self:           "a",
		Peers:          map[string]string{"b": peerURL},
		Local:          local,
		HandoffDir:     t.TempDir(),
		ForwardTimeout: 200 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		SuspectAfter:   1,
		DeadAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	theirs := keysOwnedBy(t, n.Ring(), "b", 4)
	for _, k := range theirs {
		if err := n.Submit(nodeEvent(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n.Stats().HintBacklog != 4 {
		t.Fatalf("backlog = %d, want 4", n.Stats().HintBacklog)
	}

	// Peer comes back; the next probe round notices and drains.
	peerSrv.Start()
	defer peerSrv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().HintBacklog > 0 && time.Now().Before(deadline) {
		n.Tick(context.Background())
		time.Sleep(10 * time.Millisecond)
	}
	if got := n.Stats().HintBacklog; got != 0 {
		t.Fatalf("backlog never drained: %d", got)
	}
	if peerStore.Len() != 4 {
		t.Fatalf("peer store holds %d, want 4 replayed", peerStore.Len())
	}
	if got := n.Stats().HintsReplayed; got != 4 {
		t.Fatalf("HintsReplayed = %d, want 4", got)
	}
}

func TestNodePermanentErrorPropagates(t *testing.T) {
	_, peerURL := startPeerServer(t)
	n, err := NewNode(Config{
		Self:       "a",
		Peers:      map[string]string{"b": peerURL},
		Local:      beacon.NewStore(),
		HandoffDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// An event the owner permanently rejects (bad payload) must error
	// back to the caller, NOT be hinted: redelivering it can never
	// succeed, so journaling it would wedge the drain forever.
	bad := nodeEvent(keysOwnedBy(t, n.Ring(), "b", 1)[0])
	bad.Type = "nonsense"
	if err := n.Submit(bad); err == nil {
		t.Fatal("permanently rejected event was acked")
	}
	if got := n.Stats().Hinted; got != 0 {
		t.Fatalf("permanent rejection was hinted (%d)", got)
	}
}

func TestNodeReadinessTracksBacklog(t *testing.T) {
	n, err := NewNode(Config{
		Self:             "a",
		Peers:            map[string]string{"b": "http://127.0.0.1:1"},
		Local:            beacon.NewStore(),
		HandoffDir:       t.TempDir(),
		ForwardTimeout:   100 * time.Millisecond,
		ReadyHintBacklog: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ready := n.Readiness()
	if err := ready(); err != nil {
		t.Fatalf("empty node unready: %v", err)
	}
	for _, k := range keysOwnedBy(t, n.Ring(), "b", 3) {
		if err := n.Submit(nodeEvent(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ready(); err == nil {
		t.Fatal("node with backlog 3 > threshold 2 reported ready")
	}
}

func TestNodeSingleNodePassThrough(t *testing.T) {
	local := beacon.NewStore()
	n, err := NewNode(Config{Self: "solo", Local: local})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start() // no-op without peers
	if err := n.Submit(nodeEvent("any-impression")); err != nil {
		t.Fatal(err)
	}
	if local.Len() != 1 {
		t.Fatalf("local store holds %d, want 1", local.Len())
	}
	if err := n.Readiness()(); err != nil {
		t.Fatalf("single node unready: %v", err)
	}
}

// TestNodeRejectsRequestWhole: a Node routes each beacon to its owner,
// one Submit per event, and a request whose local journal fails part way
// through is refused whole — 503, rejected = 64, which a client retries —
// not answered 202 for the part that landed. The client's re-send then
// lands every event, once in the store.
func TestNodeRejectsRequestWhole(t *testing.T) {
	store := beacon.NewStore()
	var mu sync.Mutex
	submits, journaled := 0, map[string]int{}
	journal := beacon.SinkFunc(func(e beacon.Event) error {
		mu.Lock()
		defer mu.Unlock()
		if submits++; submits == 17 {
			return beacon.ErrQueueFull
		}
		journaled[e.ImpressionID]++ // a map key is a copy
		return nil
	})
	n, err := NewNode(Config{Self: "solo", Local: beacon.Tee(store, journal)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	server := beacon.NewServerWithSink(store, &beacon.StampSink{Next: n, Now: time.Now})

	events := make([]beacon.Event, 64)
	for i := range events {
		events[i] = nodeEvent(fmt.Sprintf("imp-%d", i))
	}
	req := httptest.NewRequest("POST", "/v1/events", bytes.NewReader(beacon.AppendBinaryEvents(nil, events)))
	req.Header.Set("Content-Type", beacon.BinaryContentType)
	w := httptest.NewRecorder()
	server.ServeHTTP(w, req)
	var reply struct{ Accepted, Rejected int }
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if w.Code != 503 || reply.Accepted != 0 || reply.Rejected != 64 {
		t.Fatalf("%d accepted=%d rejected=%d, want 503 with rejected=64", w.Code, reply.Accepted, reply.Rejected)
	}

	srv := httptest.NewServer(server)
	defer srv.Close()
	if err := (&beacon.HTTPSink{BaseURL: srv.URL, Binary: true}).SubmitBatch(events); err != nil {
		t.Fatalf("re-send: %v", err)
	}
	if store.Len() != 64 {
		t.Fatalf("store holds %d events, want each of 64 once", store.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range events {
		if journaled[e.ImpressionID] == 0 {
			t.Fatalf("%s never reached the journal", e.ImpressionID)
		}
	}
	if got := n.Stats().LocalAccepted; got != 16+64 {
		t.Fatalf("node applied %d events locally, want 16 before the failure and 64 on the re-send", got)
	}
}
