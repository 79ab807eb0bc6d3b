package report

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
)

var rt0 = time.Unix(1600000000, 0).UTC()

// reportAgg builds an aggregator with one fully-classified campaign:
// 3 impressions — one viewed (with a 2s dwell cycle), one loaded-only,
// one served-only.
func reportAgg(t *testing.T) *aggregate.Aggregator {
	t.Helper()
	a := aggregate.New(aggregate.Options{TTL: -1, Now: func() time.Time { return rt0 }})
	store := beacon.NewStore()
	store.AddObserver(a.Observe)
	events := []beacon.Event{
		{ImpressionID: "i1", CampaignID: "camp-a", Type: beacon.EventServed, At: rt0, Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i1", CampaignID: "camp-a", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: rt0, Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i1", CampaignID: "camp-a", Source: beacon.SourceQTag, Type: beacon.EventInView, At: rt0, Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i1", CampaignID: "camp-a", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: rt0.Add(2 * time.Second), Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i2", CampaignID: "camp-a", Type: beacon.EventServed, At: rt0, Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i2", CampaignID: "camp-a", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: rt0, Meta: beacon.Meta{Format: "banner"}},
		{ImpressionID: "i3", CampaignID: "camp-a", Type: beacon.EventServed, At: rt0, Meta: beacon.Meta{Format: "banner"}},
	}
	for _, e := range events {
		if err := store.Submit(e); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	return a
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	return rr
}

func TestHandlerJSON(t *testing.T) {
	h := Handler(reportAgg(t), func() time.Time { return rt0 })
	rr := get(t, h, "/report")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var resp ViewabilityReport
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.GeneratedAt.Equal(rt0) {
		t.Errorf("generated_at = %v", resp.GeneratedAt)
	}
	if resp.OpenImpressions != 3 || resp.Evicted != 0 {
		t.Errorf("open=%d evicted=%d", resp.OpenImpressions, resp.Evicted)
	}
	if len(resp.Campaigns.Rows) != 1 {
		t.Fatalf("rows = %+v", resp.Campaigns.Rows)
	}
	r := resp.Campaigns.Rows[0]
	if r.CampaignID != "camp-a" || r.Format != "banner" || r.Impressions != 3 || r.Served != 3 {
		t.Fatalf("row = %+v", r)
	}
	q := r.Sources["qtag"]
	if q.Measured != 2 || q.Viewed != 1 || q.NotViewed != 1 || q.NotMeasured != 1 {
		t.Fatalf("qtag = %+v", q)
	}
	if len(resp.Windows) == 0 {
		t.Error("windows missing from default JSON")
	}
	if len(resp.Campaigns.Dwell) != 1 || resp.Campaigns.Dwell[0].Dwell.SumNs != int64(2*time.Second) {
		t.Errorf("dwell = %+v", resp.Campaigns.Dwell)
	}

	// ?windows=0 strips the rollups but nothing else.
	var lean ViewabilityReport
	if err := json.Unmarshal(get(t, h, "/report?windows=0").Body.Bytes(), &lean); err != nil {
		t.Fatalf("decode lean: %v", err)
	}
	if len(lean.Windows) != 0 {
		t.Errorf("windows=0 still returned %d windows", len(lean.Windows))
	}
	if len(lean.Campaigns.Rows) != 1 {
		t.Errorf("windows=0 dropped campaign rows")
	}
}

func TestHandlerPrometheus(t *testing.T) {
	h := Handler(reportAgg(t), nil)
	rr := get(t, h, "/report?format=prom")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`qtag_report_impressions{campaign="camp-a",format="banner"} 3`,
		`qtag_report_served{campaign="camp-a",format="banner"} 3`,
		`qtag_report_measured{campaign="camp-a",format="banner",source="qtag"} 2`,
		`qtag_report_viewed{campaign="camp-a",format="banner",source="qtag"} 1`,
		`qtag_report_not_viewed{campaign="camp-a",format="banner",source="qtag"} 1`,
		`qtag_report_not_measured{campaign="camp-a",format="banner",source="qtag"} 1`,
		`qtag_report_not_measured{campaign="camp-a",format="banner",source="commercial"} 3`,
		`qtag_report_viewability_rate{campaign="camp-a",format="banner",source="qtag"} 0.5`,
		`qtag_report_dwell_seconds_sum{campaign="camp-a",source="qtag"} 2`,
		`qtag_report_dwell_seconds_count{campaign="camp-a",source="qtag"} 1`,
		"# TYPE qtag_report_dwell_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if !strings.Contains(body, `qtag_report_dwell_seconds_bucket{campaign="camp-a",source="qtag",le="+Inf"} 1`) {
		t.Errorf("missing +Inf bucket:\n%s", body)
	}
}

func TestHandlerBadFormat(t *testing.T) {
	rr := get(t, Handler(reportAgg(t), nil), "/report?format=xml")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rr.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("error body = %s (%v)", rr.Body, err)
	}
}

func TestPrometheusEscaping(t *testing.T) {
	if got := labelSet("campaign", "a\"b\\c\nd"); got != `{campaign="a\"b\\c\nd"}` {
		t.Fatalf("labelSet = %s", got)
	}
}

func TestTextReport(t *testing.T) {
	out := Text(reportAgg(t).Snapshot())
	for _, want := range []string{"camp-a", "banner", "Viewability", "50.0%", "in-view dwell", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// simulatedRun is a small simulated production run: four campaigns, two
// of them measured by both solutions.
func simulatedRun() *campaign.Result {
	return campaign.New(campaign.Config{
		Seed: 41, Campaigns: 4, ImpressionsPerCampaign: 50, BothCampaigns: 2,
	}).Run()
}

// campaignsServed is how many impressions a run's campaigns served.
func campaignsServed(res *campaign.Result) int {
	served := 0
	for _, c := range res.Campaigns {
		served += c.Served
	}
	return served
}

// A simulated production run's report: its slices are its aggregator's
// Table 2, in (site type, OS) order, and they account for every
// impression the campaigns served.
func TestReportSlicesCoverASimulatedRun(t *testing.T) {
	res := simulatedRun()
	rr := get(t, Handler(res.Aggregate, nil), "/report")
	var rep ViewabilityReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	var cells int64
	for i, s := range rep.Slices {
		if i > 0 && [2]string{rep.Slices[i-1].SiteType, rep.Slices[i-1].OS} == [2]string{s.SiteType, s.OS} {
			t.Errorf("slice %s/%s listed twice", s.SiteType, s.OS)
		}
		cells += s.Served
	}
	if served := campaignsServed(res); int(cells) != served {
		t.Errorf("slices serve %d impressions, the campaigns %d", cells, served)
	}
	if want := res.Aggregate.Slices(); len(want) < 4 || !reflect.DeepEqual(rep.Slices, want) {
		t.Errorf("report slices = %+v\nwant the aggregator's %+v", rep.Slices, want)
	}
}

// /report mounted beside the collection API, the way qtag-server serves
// live traffic: the built-in routes still answer, and the report's rows
// account for every impression the campaigns served.
func TestReportCoexistsWithCollectionAPI(t *testing.T) {
	res := simulatedRun()
	base := beacon.NewServer(res.Store)
	base.Mount("GET /report", Handler(res.Aggregate, nil))
	srv := httptest.NewServer(base)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ViewabilityReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, r := range rep.Campaigns.Rows {
		rows += r.Served
	}
	if served := campaignsServed(res); resp.StatusCode != http.StatusOK || int(rows) != served {
		t.Errorf("report = %d, its rows serve %d impressions, the campaigns %d", resp.StatusCode, rows, served)
	}
}
