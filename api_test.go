package qtag_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	qtagapi "qtag"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/detect"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
	"qtag/internal/wal"
)

// TestPublicAPIQuickstart drives the README's core flow through the
// facade only: deploy a tag on a simulated page, observe the beacons.
func TestPublicAPIQuickstart(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument("https://pub.example", geom.Size{W: 1280, H: 5000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe("https://dsp.example", geom.Rect{X: 100, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})

	collector := qtagapi.NewCollector()
	rt := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{
		ID: "i1", CampaignID: "c1", Format: qtagapi.Display,
	})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(rt); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1500 * time.Millisecond)
	if collector.Counts("c1").Viewed[beacon.SourceQTag] != 1 {
		t.Error("in-view missing through the public API")
	}
}

// TestPublicAPICommercialBaseline confirms the facade exposes the
// baseline and that it fails exactly where the paper says it does.
func TestPublicAPICommercialBaseline(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.AndroidWebViewProfile(true)})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 412, H: 800})
	doc := dom.NewDocument("https://pub.example", geom.Size{W: 412, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe("https://dsp.example", geom.Rect{X: 50, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})
	collector := qtagapi.NewCollector()

	commRT := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{ID: "i", CampaignID: "c"})
	if err := qtagapi.NewCommercialTag().Deploy(commRT); err == nil {
		t.Error("commercial tag should fail in an old Android webview")
	}
	qRT := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{ID: "i", CampaignID: "c"})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(qRT); err != nil {
		t.Errorf("Q-Tag must work there: %v", err)
	}
}

// TestEndToEndHTTPPipeline is the full production shape over a real
// socket: collection server ← HTTP ← simulated campaigns, then GET
// /report read back over HTTP and compared with the simulator's own
// aggregates.
func TestEndToEndHTTPPipeline(t *testing.T) {
	collector := qtagapi.NewCollector()
	srv := httptest.NewServer(qtagapi.NewCollectionServer(collector))
	defer srv.Close()
	sink := &qtagapi.HTTPSink{BaseURL: srv.URL, Retries: 2}

	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 11, Campaigns: 4, ImpressionsPerCampaign: 40, BothCampaigns: 2,
		ExtraSink: sink,
	})

	// Server-side store must exactly mirror the simulator's local store.
	if collector.Len() != res.Store.Len() {
		t.Fatalf("HTTP store has %d events, local store %d", collector.Len(), res.Store.Len())
	}
	resp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep qtagapi.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	var served, loaded int
	for _, c := range res.Campaigns {
		served += c.Served
		loaded += c.QTagLoaded
	}
	var rows, cells qtagapi.Counts
	first := 0 // the first campaign's served, over its format rows
	for _, r := range rep.Campaigns.Rows {
		rows.Add(qtagapi.Counts{Served: r.Served, Measured: map[beacon.Source]int64{beacon.SourceQTag: r.Sources["qtag"].Measured}})
		if r.CampaignID == res.Campaigns[0].Spec.ID {
			first += int(r.Served)
		}
	}
	for _, s := range rep.Slices {
		cells.Add(s.Counts)
	}
	for what, c := range map[string]qtagapi.Counts{"rows": rows, "slices": cells} {
		if int(c.Served) != served {
			t.Errorf("HTTP %s served = %d, sim served = %d", what, c.Served, served)
		}
		if int(c.Measured[beacon.SourceQTag]) != loaded {
			t.Errorf("HTTP %s loaded = %d, sim loaded = %d", what, c.Measured[beacon.SourceQTag], loaded)
		}
	}
	// Per-campaign counts resolve too.
	if first != res.Campaigns[0].Served {
		t.Errorf("campaign served mismatch: %d vs %d", first, res.Campaigns[0].Served)
	}
}

// TestFacadeReproductionEntryPoints smoke-tests every reproduction entry
// point through the facade at minimal scale.
func TestFacadeReproductionEntryPoints(t *testing.T) {
	// Figure 2.
	points := qtagapi.LayoutSweep(qtagapi.LayoutSweepConfig{Steps: 40}, []int{9, 25})
	if len(points) != 18 {
		t.Errorf("layout sweep points = %d", len(points))
	}
	// Table 1.
	rep := qtagapi.RunCertification(qtagapi.CertificationConfig{Seed: 1, AutomatedReps: 2, ManualReps: 1})
	if rep.Total.Total != 6*2*6*2+2*6*1 {
		t.Errorf("certification runs = %d", rep.Total.Total)
	}
	// §4.3 placements.
	pl := qtagapi.RunRandomPlacements(50, 3)
	if pl.Correct != 50 {
		t.Errorf("placements = %+v", pl)
	}
	// Figure 3 + Table 2.
	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 2, Campaigns: 4, ImpressionsPerCampaign: 50, BothCampaigns: 4,
	})
	fig := qtagapi.Figure3(res)
	if fig[beacon.SourceQTag].MeanMeasured <= fig[beacon.SourceCommercial].MeanMeasured {
		t.Error("facade Figure3 ordering wrong")
	}
	cells := qtagapi.Table2(res)
	if len(cells) != 4 {
		t.Errorf("Table2 cells = %d", len(cells))
	}
	// §6.1.
	u := qtagapi.RevenueUplift(qtagapi.PaperMidSizeDSP())
	if math.Abs(u.DailyUSD-9500) > 1 {
		t.Errorf("uplift = %v", u.DailyUSD)
	}
	if qtagapi.RevenueUplift(qtagapi.PaperLargeDSP()).DailyUSD <= u.DailyUSD {
		t.Error("large DSP should gain more")
	}
	// Standard criteria via facade.
	if qtagapi.StandardCriteria(qtagapi.Video).Dwell != 2*time.Second {
		t.Error("facade criteria wrong")
	}
}

// TestJournaledCollectionServer exercises the durability path end to
// end: ingest over HTTP through the WAL, then rebuild a fresh collector
// from the WAL directory.
func TestJournaledCollectionServer(t *testing.T) {
	dir := t.TempDir()
	store := qtagapi.NewCollector()
	journal, _, err := beacon.OpenDurable(wal.Options{Dir: dir}, store.Store)
	if err != nil {
		t.Fatal(err)
	}
	server := beacon.NewServerWithSink(store.Store, beacon.Tee(store.Store, journal))
	srv := httptest.NewServer(server)
	defer srv.Close()

	sink := &qtagapi.HTTPSink{BaseURL: srv.URL}
	events := []qtagapi.Event{
		{ImpressionID: "a", CampaignID: "c", Type: beacon.EventServed},
		{ImpressionID: "a", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventLoaded},
		{ImpressionID: "a", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventInView},
	}
	if err := sink.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	restored := qtagapi.NewCollector()
	rec, err := beacon.ReplayWALDir(dir, restored)
	if err != nil || rec.Replayed != 3 {
		t.Fatalf("replay: %+v %v", rec, err)
	}
	if restored.Counts("c").Viewed[beacon.SourceQTag] != 1 {
		t.Error("restored collector wrong")
	}
}

// TestFacadeExtensions smoke-tests the extension entry points: the JS tag
// generator and the auditor.
func TestFacadeExtensions(t *testing.T) {
	js := qtagapi.GenerateJS(qtagapi.TagConfig{}, "https://m.example/v1/events", geom.Size{W: 300, H: 250})
	if len(js) < 1000 {
		t.Errorf("generated tag suspiciously small: %d bytes", len(js))
	}

	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 13, Campaigns: 5, ImpressionsPerCampaign: 60, BothCampaigns: 2,
		Parallelism: 2,
	})
	rep := qtagapi.Audit(res.Store)
	if !rep.Clean() {
		t.Errorf("simulation output failed its own audit:\n%s", rep.Text())
	}
}

// TestProductionSimulationAuditsClean is the transparency claim end to
// end: everything this repository's full pipeline produces survives its
// own lifecycle checker — and the checker sees it all.
func TestProductionSimulationAuditsClean(t *testing.T) {
	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 17, Campaigns: 10, ImpressionsPerCampaign: 60, BothCampaigns: 4,
	})
	if res.Store.Len() == 0 {
		t.Fatal("the simulation stored no beacons")
	}
	if rep := qtagapi.Audit(res.Store); !rep.Clean() {
		t.Fatalf("production pipeline flagged:\n%s", rep.Text())
	}
	// The same stream with one loaded beacon moved after its in-view is
	// caught, so a clean report is not an empty one.
	events := res.Store.Events()
	viewed := map[string]bool{}
	for _, e := range events {
		if e.Type == beacon.EventInView && e.Seq == 0 {
			viewed[e.ImpressionID+"/"+string(e.Source)] = true
		}
	}
	tampered := beacon.NewStore()
	moved := false
	for _, e := range events {
		if !moved && e.Type == beacon.EventLoaded && viewed[e.ImpressionID+"/"+string(e.Source)] {
			e.At = e.At.Add(time.Hour)
			moved = true
		}
		if err := tampered.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	var found []detect.Violations
	for _, r := range qtagapi.Audit(tampered).Rows {
		if r.Violations != nil {
			found = append(found, *r.Violations)
		}
	}
	if len(found) != 1 || found[0] != (detect.Violations{OutOfOrder: 1}) {
		t.Fatalf("a loaded beacon an hour late: violations %+v, want one out-of-order", found)
	}
}
