package report

import (
	"encoding/json"
	"net/http"
	"slices"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
)

// MountStats attaches the aggregator's count routes to a collection
// server, beside GET /report:
//
//	GET /v1/stats                    StatsResponse over every campaign
//	GET /v1/campaigns/{id}/stats     StatsResponse of one campaign (404: counted nothing)
//	GET /v1/breakdown?dim=os|site-type   []SliceRates, by key
//
// They count what /report counts — impressions, not beacons — from the
// same accumulators, so their totals are /report's rows summed.
func MountStats(srv *beacon.Server, a *aggregate.Aggregator) {
	srv.Mount("GET /v1/stats", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, stats("", a.Totals()))
	}))
	srv.Mount("GET /v1/campaigns/{id}/stats", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		c := a.Totals(id)
		if c.Served == 0 && len(c.Measured) == 0 && len(c.Viewed) == 0 {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown campaign " + id})
			return
		}
		writeJSON(w, http.StatusOK, stats(id, c))
	}))
	srv.Mount("GET /v1/breakdown", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rates, ok := Breakdown(a, r.URL.Query().Get("dim"))
		if !ok {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown dim; want os|site-type"})
			return
		}
		writeJSON(w, http.StatusOK, rates)
	}))
}

// stats is the StatsResponse of a campaign's counts ("" for every
// campaign's): Q-Tag's and the commercial verifier's.
func stats(campaignID string, c aggregate.Counts) beacon.StatsResponse {
	resp := beacon.StatsResponse{CampaignID: campaignID, Served: int(c.Served), Sources: make(map[string]beacon.SourceStats)}
	for _, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial} {
		resp.Sources[string(src)] = beacon.SourceStats{
			Loaded:          int(c.Measured[src]),
			InView:          int(c.Viewed[src]),
			MeasuredRate:    c.MeasuredRate(src),
			ViewabilityRate: c.ViewabilityRate(src),
		}
	}
	return resp
}

// SliceRates is one group of a breakdown: the rates of the impressions
// whose beacons named one OS, or one site type.
type SliceRates struct {
	Key        string
	Served     int
	QTag       float64 // measured rate
	Commercial float64 // measured rate
	QTagView   float64 // viewability rate of Q-Tag-measured impressions
}

// Breakdown groups the aggregator's Table 2 slices by dim — "os" or
// "site-type" — in key order, leaving out impressions that named none;
// ok is false for any other dim.
func Breakdown(a *aggregate.Aggregator, dim string) (_ []SliceRates, ok bool) {
	var key func(aggregate.Slice) string
	switch dim {
	case "os":
		key = func(s aggregate.Slice) string { return s.OS }
	case "site-type":
		key = func(s aggregate.Slice) string { return s.SiteType }
	default:
		return nil, false
	}
	var keys []string
	groups := map[string]*aggregate.Counts{}
	for _, s := range a.Slices() {
		k := key(s)
		if k == "" {
			continue
		}
		if groups[k] == nil {
			keys = append(keys, k)
			groups[k] = &aggregate.Counts{}
		}
		groups[k].Add(s.Counts)
	}
	slices.Sort(keys)
	out := make([]SliceRates, 0, len(keys))
	for _, k := range keys {
		c := groups[k]
		out = append(out, SliceRates{
			Key: k, Served: int(c.Served),
			QTag:       c.MeasuredRate(beacon.SourceQTag),
			Commercial: c.MeasuredRate(beacon.SourceCommercial),
			QTagView:   c.ViewabilityRate(beacon.SourceQTag),
		})
	}
	return out, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
