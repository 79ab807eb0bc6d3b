package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
)

// expectedReport is the oracle: the campaign × format viewed /
// not-viewed / not-measured counts and dwell histograms the batch
// recompute gives for the events the generator sent. It goes through
// the same JSON encoding as GET /report so that both sides compare in
// one representation.
func expectedReport(sent []beacon.Event) (aggregate.Snapshot, error) {
	snap := aggregate.Recompute(sent, aggregate.Options{}).Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		return snap, err
	}
	var out aggregate.Snapshot
	return out, json.Unmarshal(b, &out)
}

var reportClient = &http.Client{Timeout: 30 * time.Second}

// reportBody is the part of the plain and the federated /report payload
// the oracle reads.
type reportBody struct {
	Campaigns aggregate.Snapshot `json:"campaigns"`
	Degraded  []string           `json:"degraded"`
}

// getReport performs one GET /report and returns the whole body.
func getReport(url string) ([]byte, error) {
	resp, err := reportClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// readReport times one GET /report the way a dashboard poller sees it:
// the whole body read, nothing parsed.
func readReport(url string) (time.Duration, error) {
	start := time.Now()
	_, err := getReport(url)
	return time.Since(start), err
}

// fetchReport reads and decodes one report for the oracle.
func fetchReport(url string) (reportBody, error) {
	var rep reportBody
	b, err := getReport(url)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(b, &rep)
}

// checkReport compares a served report with the oracle and describes
// the first difference.
func checkReport(got reportBody, want aggregate.Snapshot) error {
	if len(got.Degraded) > 0 {
		return fmt.Errorf("report is partial: degraded peers %v", got.Degraded)
	}
	if len(got.Campaigns.Rows) != len(want.Rows) {
		return fmt.Errorf("report has %d rows, oracle %d", len(got.Campaigns.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		if g := got.Campaigns.Rows[i]; !reflect.DeepEqual(g, w) {
			return fmt.Errorf("row %d differs:\n  report %+v\n  oracle %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Campaigns.Dwell, want.Dwell) {
		return fmt.Errorf("dwell histograms differ (%d vs %d rows)", len(got.Campaigns.Dwell), len(want.Dwell))
	}
	return nil
}
