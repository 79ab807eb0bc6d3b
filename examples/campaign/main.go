// Campaign measurement end-to-end over HTTP: this example starts a real
// Q-Tag collection server on a loopback socket, runs a small production
// simulation whose tags mirror every beacon to that server over HTTP,
// and then reads the campaign report back from the server's one read
// route, GET /report — the full pipeline a DSP would operate (§5 of the
// paper).
//
// Run with: go run ./examples/campaign
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	qtagapi "qtag"
	"qtag/internal/beacon"
)

func main() {
	// 1. The monitoring server (cmd/qtag-server runs the same thing).
	collector := qtagapi.NewCollector()
	server := qtagapi.NewCollectionServer(collector)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = http.Serve(ln, server) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Println("collection server listening on", baseURL)

	// 2. A small production run: 8 campaigns, 3 of them instrumented with
	// both Q-Tag and the commercial verifier. Every beacon also travels
	// over the real HTTP socket.
	sink := &qtagapi.HTTPSink{BaseURL: baseURL, Retries: 2}
	qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed:                   7,
		Campaigns:              8,
		ImpressionsPerCampaign: 60,
		BothCampaigns:          3,
		ExtraSink:              sink,
	})

	// 3. Read the report back over HTTP: one row per campaign and ad
	// format, with the rates per solution.
	rep := fetchReport(baseURL)
	fmt.Println("\nper-campaign rows read from GET /report:")
	for _, r := range rep.Campaigns.Rows {
		q, c := r.Sources[string(beacon.SourceQTag)], r.Sources[string(beacon.SourceCommercial)]
		line := fmt.Sprintf("  %s %-7s served=%4d  qtag: measured %5.1f%% viewability %5.1f%%",
			r.CampaignID, r.Format, r.Served, q.MeasuredRate*100, q.ViewabilityRate*100)
		if c.Measured > 0 {
			line += fmt.Sprintf("  commercial: measured %5.1f%% viewability %5.1f%%", c.MeasuredRate*100, c.ViewabilityRate*100)
		}
		fmt.Println(line)
	}

	// 4. Global Figure 3 style summary: the report's Table 2 slices sum
	// to every served impression.
	var global qtagapi.Counts
	for _, s := range rep.Slices {
		global.Add(s.Counts)
	}
	fmt.Printf("\nglobal: served=%d\n", global.Served)
	fmt.Printf("  qtag:       measured %5.1f%%  viewability %5.1f%%\n",
		global.MeasuredRate(beacon.SourceQTag)*100, global.ViewabilityRate(beacon.SourceQTag)*100)
	fmt.Printf("  commercial: measured %5.1f%% (of all served; only %d campaigns carried it)\n",
		global.MeasuredRate(beacon.SourceCommercial)*100, 3)
	fmt.Println("\nTable 2 slices (site type × OS):")
	for _, s := range rep.Slices {
		fmt.Printf("  %-8s %-8s served=%4d  qtag measured %5.1f%%  commercial measured %5.1f%%\n",
			s.SiteType, s.OS, s.Served, s.MeasuredRate(beacon.SourceQTag)*100, s.MeasuredRate(beacon.SourceCommercial)*100)
	}
	fmt.Println("\n(the measured-rate gap is the paper's Figure 3(a); see cmd/qtag-sim for the full run)")
}

// fetchReport reads GET /report into the facade's Report.
func fetchReport(baseURL string) qtagapi.Report {
	resp, err := http.Get(baseURL + "/report")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("GET /report: status %d", resp.StatusCode))
	}
	var rep qtagapi.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		panic(err)
	}
	return rep
}
