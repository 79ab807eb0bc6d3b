package analytics

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/campaign"
)

func TestDimensionStrings(t *testing.T) {
	names := map[Dimension]string{
		ByExchange: "exchange", ByCountry: "country", ByOS: "os",
		BySiteType: "site-type", ByAdSize: "ad-size",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q", int(d), d.String())
		}
	}
	if Dimension(99).String() != "Dimension(99)" {
		t.Error("unknown dimension string wrong")
	}
}

func TestBreakdownByExchange(t *testing.T) {
	res := campaign.New(campaign.Config{
		Seed: 31, Campaigns: 6, ImpressionsPerCampaign: 80, BothCampaigns: 6,
	}).Run()
	slices := BreakdownBy(res.Store, ByExchange)
	if len(slices) != len(campaign.Exchanges) {
		t.Fatalf("exchanges = %d, want %d", len(slices), len(campaign.Exchanges))
	}
	var total int
	for i, s := range slices {
		if i > 0 && slices[i-1].Key >= s.Key {
			t.Fatal("slices not sorted")
		}
		if s.Served == 0 {
			t.Errorf("exchange %s unpopulated", s.Key)
		}
		if s.QTag <= s.Commercial {
			t.Errorf("exchange %s: qtag %.3f vs commercial %.3f", s.Key, s.QTag, s.Commercial)
		}
		total += s.Served
	}
	var served int
	for _, c := range res.Campaigns {
		served += c.Served
	}
	if total != served {
		t.Errorf("breakdown covers %d impressions, sim served %d", total, served)
	}
}

func TestBreakdownByCountryAndAdSize(t *testing.T) {
	res := campaign.New(campaign.Config{
		Seed: 33, Campaigns: 7, ImpressionsPerCampaign: 60, BothCampaigns: 0,
	}).Run()
	countries := BreakdownBy(res.Store, ByCountry)
	if len(countries) != 7 { // 7 campaigns → 7 distinct countries (round robin)
		t.Errorf("countries = %d", len(countries))
	}
	sizes := BreakdownBy(res.Store, ByAdSize)
	if len(sizes) != 2 {
		t.Fatalf("ad sizes = %d, want 2 (300x250, 320x50)", len(sizes))
	}
	for _, s := range sizes {
		if s.Key != "300x250" && s.Key != "320x50" {
			t.Errorf("unexpected size key %q", s.Key)
		}
		if s.QTag < 0.85 {
			t.Errorf("size %s qtag measured = %.3f", s.Key, s.QTag)
		}
	}
}

func TestBreakdownEmptyStore(t *testing.T) {
	if got := BreakdownBy(beacon.NewStore(), ByOS); len(got) != 0 {
		t.Errorf("empty store breakdown = %v", got)
	}
}

func TestTimeSeries(t *testing.T) {
	store := beacon.NewStore()
	base := time.Date(2019, 12, 9, 10, 0, 0, 0, time.UTC)
	submit := func(imp string, typ beacon.EventType, src beacon.Source, at time.Time) {
		t.Helper()
		err := store.Submit(beacon.Event{
			ImpressionID: imp, CampaignID: "c", Type: typ, Source: src, At: at,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Hour 1: 2 served, 2 measured, 1 in-view. Hour 2: 1 served, 0 measured.
	submit("a", beacon.EventServed, "", base)
	submit("a", beacon.EventLoaded, beacon.SourceQTag, base.Add(time.Second))
	submit("a", beacon.EventInView, beacon.SourceQTag, base.Add(2*time.Second))
	submit("b", beacon.EventServed, "", base.Add(10*time.Minute))
	submit("b", beacon.EventLoaded, beacon.SourceQTag, base.Add(10*time.Minute))
	submit("z", beacon.EventServed, "", base.Add(90*time.Minute))

	buckets := TimeSeries(store, time.Hour)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	h1, h2 := buckets[0], buckets[1]
	if h1.Served != 2 || h1.QTag != 1.0 || h1.InView != 0.5 {
		t.Errorf("hour 1 = %+v", h1)
	}
	if h2.Served != 1 || h2.QTag != 0 {
		t.Errorf("hour 2 = %+v", h2)
	}
	if !h2.Start.After(h1.Start) {
		t.Error("buckets not ordered")
	}
}

func TestTimeSeriesIgnoresZeroTimestamps(t *testing.T) {
	store := beacon.NewStore()
	store.Submit(beacon.Event{ImpressionID: "a", CampaignID: "c", Type: beacon.EventServed})
	if got := TimeSeries(store, time.Hour); len(got) != 0 {
		t.Errorf("zero-timestamp events must be ignored: %v", got)
	}
}

// TestTimeSeriesBeforeTheEpoch: a bucket is the width-long interval that
// holds the instant, so half a minute before 1970 falls in the minute
// that starts at 23:59 — not in the one at 00:00, where dividing toward
// zero put it. Instants UnixNano cannot represent are left out, as zero
// timestamps are.
func TestTimeSeriesBeforeTheEpoch(t *testing.T) {
	store := beacon.NewStore()
	epoch := time.Unix(0, 0).UTC()
	for i, at := range []time.Time{
		epoch.Add(-30 * time.Second),
		epoch.Add(-90 * time.Second),
		epoch.Add(30 * time.Second),
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		if err := store.Submit(beacon.Event{ImpressionID: fmt.Sprint("imp-", i), CampaignID: "c",
			Type: beacon.EventServed, At: at}); err != nil {
			t.Fatal(err)
		}
	}
	got := TimeSeries(store, time.Minute)
	var starts []time.Time
	for _, b := range got {
		if b.Served != 1 {
			t.Errorf("bucket %v counts %d served, want 1", b.Start, b.Served)
		}
		starts = append(starts, b.Start)
	}
	want := []time.Time{epoch.Add(-2 * time.Minute), epoch.Add(-time.Minute), epoch}
	if !reflect.DeepEqual(starts, want) {
		t.Fatalf("bucket starts %v, want %v", starts, want)
	}
}

func TestTimeSeriesPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TimeSeries(beacon.NewStore(), 0)
}
