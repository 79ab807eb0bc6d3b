package analytics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/report"
)

// analyticsServer serves a simulated production run the way qtag-server
// serves live traffic: the collection API with the read routes over the
// run's counts mounted beside it.
func analyticsServer(t *testing.T) (*httptest.Server, *campaign.Result) {
	t.Helper()
	res := campaign.New(campaign.Config{
		Seed: 41, Campaigns: 4, ImpressionsPerCampaign: 50, BothCampaigns: 2,
	}).Run()
	base := beacon.NewServer(res.Store)
	report.MountStats(base, res.Aggregate)
	return httptest.NewServer(base), res
}

func TestHTTPBreakdown(t *testing.T) {
	srv, res := analyticsServer(t)
	defer srv.Close()
	for _, dim := range []string{"os", "site-type"} {
		resp, err := http.Get(srv.URL + "/v1/breakdown?dim=" + dim)
		if err != nil {
			t.Fatal(err)
		}
		var slices []report.SliceRates
		if err := json.NewDecoder(resp.Body).Decode(&slices); err != nil {
			t.Fatalf("%s: decode: %v", dim, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d", dim, resp.StatusCode)
		}
		// Every simulated impression names its OS and site type, so each
		// dimension's groups cover every served impression, in key order.
		served := 0
		for i, s := range slices {
			if s.Key == "" || s.Served == 0 {
				t.Errorf("%s: empty slice %+v", dim, s)
			}
			if i > 0 && slices[i-1].Key >= s.Key {
				t.Errorf("%s: slices not sorted: %q before %q", dim, slices[i-1].Key, s.Key)
			}
			served += s.Served
		}
		if len(slices) < 2 || served != int(res.Aggregate.Totals().Served) {
			t.Errorf("%s: %d slices covering %d served, want several covering %d", dim, len(slices), served, res.Aggregate.Totals().Served)
		}
	}
	// Unknown dimensions 400s, the ones only the beacon counters had too.
	for _, dim := range []string{"bogus", "exchange", "country", "ad-size"} {
		resp, err := http.Get(srv.URL + "/v1/breakdown?dim=" + dim)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("dim %s status = %d, want 400", dim, resp.StatusCode)
		}
	}
}

func TestHTTPCoexistsWithCollectionAPI(t *testing.T) {
	srv, res := analyticsServer(t)
	defer srv.Close()
	// The built-in endpoints still work after mounting.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats beacon.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, c := range res.Campaigns {
		served += c.Served
	}
	if stats.Served != served {
		t.Errorf("stats served = %d, the campaigns %d", stats.Served, served)
	}
}

func TestBreakdownEmptyStore(t *testing.T) {
	if got, ok := report.Breakdown(aggregate.New(aggregate.Options{}), "os"); !ok || len(got) != 0 {
		t.Errorf("empty aggregator breakdown = %v, %v", got, ok)
	}
}
