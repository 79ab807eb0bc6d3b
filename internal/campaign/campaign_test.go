package campaign

import (
	"math"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/simrand"
	"qtag/internal/stats"
)

// testConfig is a scaled-down production run: every campaign carries both
// tags so the commercial slice has statistics even at small scale.
func testConfig() Config {
	return Config{
		Seed:                   1,
		Campaigns:              30,
		ImpressionsPerCampaign: 80,
		BothCampaigns:          30,
	}
}

func totals(res *Result) (served, ql, qi, cl, ci, tv int) {
	for _, c := range res.Campaigns {
		served += c.Served
		ql += c.QTagLoaded
		qi += c.QTagInView
		cl += c.CommercialLoaded
		ci += c.CommercialInView
		tv += c.TruthViewed
	}
	return
}

// TestFigure3Shape reproduces the paper's headline comparison: both
// solutions report ≈50 % viewability, but Q-Tag measures ≈93 % of
// impressions versus ≈74 % for the commercial solution.
func TestFigure3Shape(t *testing.T) {
	res := New(testConfig()).Run()
	served, ql, qi, cl, ci, tv := totals(res)
	if served == 0 {
		t.Fatal("no impressions served")
	}
	qm := float64(ql) / float64(served)
	cm := float64(cl) / float64(served)
	if qm < 0.90 || qm > 0.97 {
		t.Errorf("Q-Tag measured rate = %.3f, want ≈0.93", qm)
	}
	if cm < 0.68 || cm > 0.80 {
		t.Errorf("commercial measured rate = %.3f, want ≈0.74", cm)
	}
	if qm-cm < 0.12 {
		t.Errorf("measured-rate gap = %.3f, want ≈0.19", qm-cm)
	}
	qv := float64(qi) / float64(ql)
	cv := float64(ci) / float64(cl)
	if math.Abs(qv-0.5) > 0.08 || math.Abs(cv-0.5) > 0.08 {
		t.Errorf("viewability rates = %.3f / %.3f, want ≈0.50 both", qv, cv)
	}
	if math.Abs(qv-cv) > 0.05 {
		t.Errorf("solutions should report similar viewability: %.3f vs %.3f", qv, cv)
	}
	truth := float64(tv) / float64(served)
	if math.Abs(qv-truth) > 0.05 {
		t.Errorf("Q-Tag viewability %.3f should track ground truth %.3f", qv, truth)
	}
}

// TestTable2Ordering checks the measured-rate slices by OS × site type:
// Q-Tag beats the commercial solution everywhere, each cell is close to
// the paper's value, and the largest gap is Android in-app.
func TestTable2Ordering(t *testing.T) {
	res := New(testConfig()).Run()
	want := map[[2]string][2]float64{ // {os, site} → {qtag, commercial}
		{"Android", "app"}:     {0.906, 0.534},
		{"iOS", "app"}:         {0.970, 0.838},
		{"Android", "browser"}: {0.944, 0.867},
		{"iOS", "browser"}:     {0.946, 0.911},
	}
	slices := map[[2]string]aggregate.Counts{}
	for _, s := range res.Aggregate.Slices() {
		slices[[2]string{s.OS, s.SiteType}] = s.Counts
	}
	gaps := map[[2]string]float64{}
	for cell, paper := range want {
		counts := slices[cell]
		if counts.Served < 100 {
			t.Fatalf("cell %v underpopulated: %d served", cell, counts.Served)
		}
		q, c := counts.MeasuredRate(beacon.SourceQTag), counts.MeasuredRate(beacon.SourceCommercial)
		if q <= c {
			t.Errorf("%v: Q-Tag (%.3f) must beat commercial (%.3f)", cell, q, c)
		}
		if math.Abs(q-paper[0]) > 0.04 {
			t.Errorf("%v: Q-Tag measured %.3f, paper %.3f", cell, q, paper[0])
		}
		if math.Abs(c-paper[1]) > 0.05 {
			t.Errorf("%v: commercial measured %.3f, paper %.3f", cell, c, paper[1])
		}
		gaps[cell] = q - c
	}
	worst := [2]string{"Android", "app"}
	for cell, gap := range gaps {
		if cell != worst && gap >= gaps[worst] {
			t.Errorf("largest gap should be Android app; %v has %.3f vs %.3f", cell, gap, gaps[worst])
		}
	}
}

func TestCampaignLevelSpread(t *testing.T) {
	res := New(testConfig()).Run()
	var measured, view []float64
	for _, c := range res.Campaigns {
		measured = append(measured, c.MeasuredRate(beacon.SourceQTag))
		view = append(view, c.ViewabilityRate(beacon.SourceQTag))
	}
	if sd := stats.StdDev(measured); sd <= 0 || sd > 0.10 {
		t.Errorf("measured-rate spread = %.3f; expected modest non-zero error bars", sd)
	}
	if sd := stats.StdDev(view); sd <= 0.01 || sd > 0.20 {
		t.Errorf("viewability spread = %.3f; expected visible error bars", sd)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 9, Campaigns: 5, ImpressionsPerCampaign: 30, BothCampaigns: 2}
	a := New(cfg).Run()
	b := New(cfg).Run()
	as, aql, aqi, acl, aci, atv := totals(a)
	bs, bql, bqi, bcl, bci, btv := totals(b)
	if as != bs || aql != bql || aqi != bqi || acl != bcl || aci != bci || atv != btv {
		t.Error("same seed must reproduce identical aggregates")
	}
}

func TestGenerateSpecs(t *testing.T) {
	sim := New(Config{Seed: 2})
	specs := sim.GenerateSpecs()
	if len(specs) != 99 {
		t.Fatalf("default campaigns = %d, want 99", len(specs))
	}
	bothCount := 0
	ids := map[string]bool{}
	for i, sp := range specs {
		if sp.Both {
			bothCount++
			if i >= 4 {
				t.Error("both-tag campaigns must be the first 4")
			}
		}
		if ids[sp.ID] {
			t.Errorf("duplicate id %s", sp.ID)
		}
		ids[sp.ID] = true
		if sp.Impressions < 10 || sp.Sector == "" || sp.Country == "" || sp.Name == "" {
			t.Errorf("spec %d incomplete: %+v", i, sp)
		}
		if sp.Size != AdSizes[0] && sp.Size != AdSizes[1] {
			t.Errorf("unexpected ad size %v", sp.Size)
		}
		for _, w := range sp.Mix {
			if w <= 0 {
				t.Errorf("spec %d has non-positive mix weight", i)
			}
		}
	}
	if bothCount != 4 {
		t.Errorf("both-tag campaigns = %d, want 4", bothCount)
	}
}

func TestBothImpressionsFactor(t *testing.T) {
	sim := New(Config{Seed: 3, Campaigns: 10, ImpressionsPerCampaign: 100,
		BothCampaigns: 2, BothImpressionsFactor: 4})
	specs := sim.GenerateSpecs()
	var bothMean, restMean float64
	for i, sp := range specs {
		if i < 2 {
			bothMean += float64(sp.Impressions) / 2
		} else {
			restMean += float64(sp.Impressions) / 8
		}
	}
	if bothMean < 2*restMean {
		t.Errorf("both campaigns (%.0f avg) should be much larger than the rest (%.0f avg)", bothMean, restMean)
	}
}

func TestExtraSinkTee(t *testing.T) {
	extra := beacon.NewStore()
	cfg := Config{Seed: 4, Campaigns: 2, ImpressionsPerCampaign: 20, BothCampaigns: 1, ExtraSink: extra}
	res := New(cfg).Run()
	if extra.Len() == 0 {
		t.Fatal("extra sink received nothing")
	}
	if extra.Len() != res.Store.Len() {
		t.Errorf("tee mismatch: extra %d vs store %d", extra.Len(), res.Store.Len())
	}
}

func TestEnvClassStrings(t *testing.T) {
	names := map[EnvClass]string{
		EnvAndroidApp: "android-app", EnvIOSApp: "ios-app",
		EnvAndroidBrowser: "android-browser", EnvIOSBrowser: "ios-browser",
		EnvDesktop: "desktop",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if EnvClass(99).String() != "EnvClass(99)" {
		t.Error("unknown class string wrong")
	}
	if len(EnvClasses()) != 5 {
		t.Error("EnvClasses wrong")
	}
}

func TestEnvModelProfiles(t *testing.T) {
	rng := simrand.New(5)
	models := DefaultEnvModels()
	checks := map[EnvClass][2]string{ // class → {OS, site}
		EnvAndroidApp:     {"Android", "app"},
		EnvIOSApp:         {"iOS", "app"},
		EnvAndroidBrowser: {"Android", "browser"},
		EnvIOSBrowser:     {"iOS", "browser"},
	}
	for class, want := range checks {
		for i := 0; i < 20; i++ {
			p := models[class].Profile(rng)
			if string(p.OS) != want[0] || p.Site.String() != want[1] {
				t.Fatalf("%v profile = %s/%s", class, p.OS, p.Site)
			}
			if !p.SupportsFrameCallbacks {
				t.Fatalf("%v must support frame callbacks", class)
			}
		}
	}
	// Desktop draws from the certification profiles.
	p := models[EnvDesktop].Profile(rng)
	if p.Device != browser.Desktop {
		t.Errorf("desktop class produced %v", p.Device)
	}
	// Modern-API share is honoured statistically.
	model := models[EnvAndroidApp]
	modern := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if model.Profile(rng).SupportsIntersectionObserver {
			modern++
		}
	}
	share := float64(modern) / n
	if math.Abs(share-model.ModernAPIShare) > 0.03 {
		t.Errorf("modern share = %.3f, want %.3f", share, model.ModernAPIShare)
	}
}

func TestTrafficMix(t *testing.T) {
	mix := DefaultTrafficMix()
	var sum float64
	for _, w := range mix {
		if w <= 0 {
			t.Fatal("default mix must be strictly positive")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("default mix sums to %v", sum)
	}
	rng := simrand.New(6)
	counts := map[EnvClass]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[mix.Draw(rng)]++
	}
	for _, class := range EnvClasses() {
		got := float64(counts[class]) / n
		if math.Abs(got-mix[class]) > 0.02 {
			t.Errorf("%v drawn %.3f, want %.3f", class, got, mix[class])
		}
	}
	pert := mix.Perturb(rng, 0.3)
	for i, w := range pert {
		if w <= 0 {
			t.Errorf("perturbed weight %d non-positive", i)
		}
	}
}

func BenchmarkImpression(b *testing.B) {
	sim := New(Config{Seed: 1, Campaigns: 1, ImpressionsPerCampaign: 1, BothCampaigns: 1})
	specs := sim.GenerateSpecs()
	spec := specs[0]
	spec.Impressions = b.N
	b.ResetTimer()
	sim.runCampaign(spec, simrand.New(1))
}

// TestParallelismDeterminism: any Parallelism yields bit-identical
// aggregates because campaign RNGs are pre-forked in order.
func TestParallelismDeterminism(t *testing.T) {
	base := Config{Seed: 77, Campaigns: 8, ImpressionsPerCampaign: 40, BothCampaigns: 3, RecordImpressions: true}
	seq := New(base).Run()
	par := base
	par.Parallelism = 4
	got := New(par).Run()
	if len(seq.Campaigns) != len(got.Campaigns) {
		t.Fatal("campaign counts differ")
	}
	for i := range seq.Campaigns {
		a, b := seq.Campaigns[i], got.Campaigns[i]
		if a.Served != b.Served || a.QTagLoaded != b.QTagLoaded ||
			a.QTagInView != b.QTagInView || a.TruthViewed != b.TruthViewed ||
			a.CommercialLoaded != b.CommercialLoaded {
			t.Errorf("campaign %d differs: %+v vs %+v", i, a, b)
		}
	}
	if seq.Store.Len() != got.Store.Len() {
		t.Errorf("store sizes differ: %d vs %d", seq.Store.Len(), got.Store.Len())
	}
	if len(seq.Impressions) != len(got.Impressions) {
		t.Fatalf("record counts differ: %d vs %d", len(seq.Impressions), len(got.Impressions))
	}
	for i := range seq.Impressions {
		if seq.Impressions[i] != got.Impressions[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, seq.Impressions[i], got.Impressions[i])
		}
	}
}

func TestSpreadOverTimestamps(t *testing.T) {
	res := New(Config{
		Seed: 51, Campaigns: 3, ImpressionsPerCampaign: 40, BothCampaigns: 0,
		SpreadOver: 7 * 24 * time.Hour,
	}).Run()
	var min, max time.Time
	for _, e := range res.Beacons.Events() {
		if e.At.IsZero() {
			t.Fatal("unstamped event")
		}
		if min.IsZero() || e.At.Before(min) {
			min = e.At
		}
		if e.At.After(max) {
			max = e.At
		}
	}
	if max.Sub(min) < 3*24*time.Hour {
		t.Errorf("timestamps span only %v; want several days", max.Sub(min))
	}
}
