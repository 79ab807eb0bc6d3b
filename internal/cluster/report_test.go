package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/report"
)

// tableEvents is the i-th impression of a Table 2 load: served, a Q-Tag
// check-in for three in four, an in-view for one in three and a
// commercial check-in for one in five, in three campaigns, over two
// site types × two OSes — and, for one in seven, no site type or OS.
func tableEvents(i int) []beacon.Event {
	imp := fmt.Sprintf("t2-%04d", i)
	at := time.Unix(1500000000, 0).UTC().Add(time.Duration(i) * time.Second)
	meta := beacon.Meta{OS: []string{"Android", "iOS"}[i%2], SiteType: []string{"app", "browser"}[i/2%2]}
	if i%7 == 0 {
		meta = beacon.Meta{}
	}
	ev := beacon.Event{ImpressionID: imp, CampaignID: fmt.Sprintf("c%d", i%3), Type: beacon.EventServed, At: at, Meta: meta}
	evs := []beacon.Event{ev}
	if i%4 != 0 {
		ev.Source, ev.Type, ev.At = beacon.SourceQTag, beacon.EventLoaded, at.Add(time.Second)
		evs = append(evs, ev)
		if i%3 == 0 {
			ev.Type, ev.At = beacon.EventInView, at.Add(2*time.Second)
			evs = append(evs, ev)
		}
	}
	if i%5 == 0 {
		ev.Source, ev.Type, ev.At = beacon.SourceCommercial, beacon.EventLoaded, at.Add(time.Second)
		evs = append(evs, ev)
	}
	return evs
}

// sendTable posts impressions [0, n) of the Table 2 load round-robin
// across urls, each impression in one request; every one must be
// acked.
func sendTable(t *testing.T, n int, urls ...string) {
	t.Helper()
	for i := 0; i < n; i++ {
		sink := &beacon.HTTPSink{BaseURL: urls[i%len(urls)], Retries: 2, Timeout: 2 * time.Second}
		if err := sink.SubmitBatch(tableEvents(i)); err != nil {
			t.Fatalf("impression %d: %v", i, err)
		}
	}
}

func getReport(t *testing.T, url string) report.ViewabilityReport {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var rep report.ViewabilityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return rep
}

// servedErr reports a report whose Table 2 slices do not account for
// every served impression of its rows.
func servedErr(rep report.ViewabilityReport) error {
	var rows, cells int64
	for _, r := range rep.Campaigns.Rows {
		rows += r.Served
	}
	for _, s := range rep.Slices {
		cells += s.Served
	}
	if rows == 0 || cells != rows {
		return fmt.Errorf("slices serve %d impressions, rows %d", cells, rows)
	}
	return nil
}

// The federated report's Table 2 is the one a single node fed the same
// impressions serves: the nodes' slices summed cell by cell, the cell of
// impressions that named no site type or OS included.
func TestClusterFederatedSlicesEqualOneNodes(t *testing.T) {
	const impressions = 60
	h := collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 2, Base: fastNode()})
	_, single, _ := collectortest.Boot(t, collector.DefaultConfig())
	sendTable(t, impressions, h.LiveURLs()...)
	sendTable(t, impressions, single)

	fed := getReport(t, h.Nodes[0].URL+"/report?federated=1")
	one := getReport(t, single+"/report")
	if len(fed.Nodes) != 2 || len(fed.Degraded) != 0 {
		t.Fatalf("federated nodes %v, degraded %v; want both nodes", fed.Nodes, fed.Degraded)
	}
	for name, rep := range map[string]report.ViewabilityReport{"federated": fed, "single node": one} {
		if err := servedErr(rep); err != nil {
			t.Errorf("%s report: %v", name, err)
		}
	}
	if len(one.Slices) != 5 || one.Slices[0].SiteType != "" || one.Slices[0].OS != "" {
		t.Errorf("single node slices = %+v, want the unnamed cell and four named ones", one.Slices)
	}
	if !reflect.DeepEqual(fed.Slices, one.Slices) {
		t.Fatalf("federated slices differ from one node's:\n got %+v\nwant %+v", fed.Slices, one.Slices)
	}
}

// A cluster node run with -detect serves its own fraud scores in its
// plain report, as a single node does; the federated reply has none
// (scores are per-node state).
func TestClusterNodesServeTheirFraudScores(t *testing.T) {
	base := fastNode()
	base.Detect = true
	h := collectortest.StartHarness(t, collectortest.HarnessConfig{Nodes: 2, Base: base})
	sendTable(t, 40, h.LiveURLs()...)

	var rows int
	for _, hn := range h.Nodes {
		rep := getReport(t, hn.URL+"/report")
		if rep.Fraud == nil {
			t.Fatalf("node %s: plain /report has no fraud section", hn.ID)
		}
		rows += len(rep.Fraud.Rows)
	}
	if rows == 0 {
		t.Fatal("no node scored any row")
	}
	if fed := getReport(t, h.Nodes[0].URL+"/report?federated=1"); fed.Fraud != nil {
		t.Fatalf("federated report carries a fraud section: %+v", fed.Fraud)
	}
}
