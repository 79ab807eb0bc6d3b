package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/obs"
	"qtag/internal/report"
)

// FederatedReport is the GET /report?federated=1 payload: the cluster-
// wide merge of every reachable node's snapshot. Degraded lists the
// nodes whose snapshot could not be fetched within the deadline — the
// report is explicitly partial rather than failing closed, because a
// campaign dashboard that 500s during a single-node outage is worse
// than one that says which slice is missing.
type FederatedReport struct {
	GeneratedAt     time.Time          `json:"generated_at"`
	Nodes           []string           `json:"nodes"`
	Degraded        []string           `json:"degraded,omitempty"`
	Campaigns       aggregate.Snapshot `json:"campaigns"`
	OpenImpressions int                `json:"open_impressions"`
	Evicted         int64              `json:"evicted_impression_states"`
}

// FederationConfig tunes the fan-out.
type FederationConfig struct {
	// Self is this node's ID (appears in Nodes).
	Self string
	// Peers maps peer ID → base URL; each is asked for its local
	// /report.
	Peers map[string]string
	// Transport, when set, replaces the default transport (fault
	// injection seam).
	Transport http.RoundTripper
	// Now is the report clock (time.Now when nil).
	Now func() time.Time
	// Tracer, when set, wraps each federated fan-out in a
	// "report.federate" span with one "federate.fetch" child per peer,
	// and injects the child's traceparent on the peer request.
	Tracer *obs.Tracer
}

// perPeerTimeout bounds each peer fetch: a slow peer becomes a degraded
// entry, never a slow report.
const perPeerTimeout = 2 * time.Second

// FederatedHandler wraps the plain single-node report handler: without
// ?federated=1 it is exactly report.Handler; with it, the handler fans
// out to every peer's plain /report (windows suppressed — rollup
// windows don't merge across nodes), merges the snapshots with
// aggregate.Merge, and marks unreachable peers in Degraded.
//
// Peers are always asked for their PLAIN report, so federation never
// recurses: a two-node cluster asking each other federated reports
// would otherwise ping-pong forever. They are asked with the caller's
// credentials — its Authorization header and its ?key= — so a cluster
// whose nodes guard /report with one operator key federates under it.
func FederatedHandler(a *aggregate.Aggregator, cfg FederationConfig) http.Handler {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	plain := report.Handler(a, cfg.Now)
	client := &http.Client{Transport: cfg.Transport}
	return &federatedHandler{a: a, cfg: cfg, plain: plain, client: client}
}

type federatedHandler struct {
	a      *aggregate.Aggregator
	cfg    FederationConfig
	plain  http.Handler
	client *http.Client

	// PartialReports counts federated responses that had at least one
	// degraded peer (exposed for metrics).
	partial atomic.Int64
}

// PartialReports returns how many federated responses were partial.
func (h *federatedHandler) PartialReports() int64 { return h.partial.Load() }

func (h *federatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("federated") != "1" {
		h.plain.ServeHTTP(w, r)
		return
	}

	// The fan-out span continues the request's server span when the
	// report route is mounted behind obs.TraceMiddleware, else the raw
	// inbound traceparent, else roots a new trace.
	parent := obs.SpanFromContext(r.Context()).Context()
	if !parent.Valid() {
		parent, _ = obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
	}
	fsp := h.cfg.Tracer.StartSpan(parent, "report.federate")
	defer fsp.End()

	type peerResult struct {
		id  string
		rep report.ViewabilityReport
		err error
	}
	results := make([]peerResult, 0, len(h.cfg.Peers))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, base := range h.cfg.Peers {
		wg.Add(1)
		go func(id, base string) {
			defer wg.Done()
			psp := h.cfg.Tracer.StartSpan(fsp.Context(), "federate.fetch")
			psp.SetAttr("peer", id)
			rep, err := h.fetch(r, base, psp.TraceParent())
			if err != nil {
				psp.SetError(err.Error())
			}
			psp.End()
			mu.Lock()
			results = append(results, peerResult{id: id, rep: rep, err: err})
			mu.Unlock()
		}(id, base)
	}
	local := report.ViewabilityReport{
		Campaigns:       h.a.Snapshot(),
		OpenImpressions: h.a.OpenImpressions(),
		Evicted:         h.a.Evicted(),
	}
	wg.Wait()

	out := FederatedReport{
		GeneratedAt: h.cfg.Now().UTC(),
		Nodes:       []string{h.cfg.Self},
	}
	snaps := []aggregate.Snapshot{local.Campaigns}
	out.OpenImpressions = local.OpenImpressions
	out.Evicted = local.Evicted
	for _, res := range results {
		if res.err != nil {
			out.Degraded = append(out.Degraded, res.id)
			continue
		}
		out.Nodes = append(out.Nodes, res.id)
		snaps = append(snaps, res.rep.Campaigns)
		out.OpenImpressions += res.rep.OpenImpressions
		out.Evicted += res.rep.Evicted
	}
	sort.Strings(out.Nodes)
	sort.Strings(out.Degraded)
	out.Campaigns = aggregate.Merge(snaps...)
	fsp.SetAttr("peers", strconv.Itoa(len(h.cfg.Peers)))
	fsp.SetAttr("degraded", strconv.Itoa(len(out.Degraded)))
	if len(out.Degraded) > 0 {
		h.partial.Add(1)
		fsp.SetError(fmt.Sprintf("%d of %d peers degraded", len(out.Degraded), len(h.cfg.Peers)))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// fetch pulls one peer's plain report for the federated request from,
// under the per-peer deadline and with from's credentials, propagating
// the fetch span's traceparent when tracing is active.
func (h *federatedHandler) fetch(from *http.Request, baseURL, traceparent string) (report.ViewabilityReport, error) {
	var rep report.ViewabilityReport
	ctx, cancel := context.WithTimeout(from.Context(), perPeerTimeout)
	defer cancel()
	target := baseURL + "/report?windows=0"
	if key := from.URL.Query().Get("key"); key != "" {
		target += "&key=" + url.QueryEscape(key)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return rep, err
	}
	if auth := from.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceParentHeader, traceparent)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("cluster: peer report status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, err
	}
	return rep, nil
}
