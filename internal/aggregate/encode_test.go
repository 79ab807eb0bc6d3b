package aggregate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/jsonenc"
)

// requireEncodersMatchMarshal compares both report encoders with
// encoding/json over the snapshot types they stand in for.
func requireEncodersMatchMarshal(t *testing.T, a *Aggregator) {
	t.Helper()
	var (
		dwell []byte
		r     jsonenc.Render
	)
	got, n := a.AppendSnapshotJSON(r.Start(), &dwell, &r)
	snap := a.Snapshot()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	if !bytes.Equal(got, want) || n != len(snap.Rows) {
		t.Fatalf("AppendSnapshotJSON (%d rows):\n got %s\nwant %s", n, got, want)
	}
	var cells SliceSum
	a.SumSlices(&cells)
	got = cells.AppendJSON(nil)
	if want, err = json.Marshal(a.Slices()); err != nil {
		t.Fatalf("marshal slices: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SliceSum.AppendJSON:\n got %s\nwant %s", got, want)
	}
	got, n = a.AppendWindowsJSON(r.Start(), &r)
	wins := a.Windows()
	if want, err = json.Marshal(wins); err != nil {
		t.Fatalf("marshal windows: %v", err)
	}
	if !bytes.Equal(got, want) || n != len(wins) {
		t.Fatalf("AppendWindowsJSON (%d windows):\n got %s\nwant %s", n, got, want)
	}
}

// TestEncodersMatchMarshal covers what a test outside the package
// cannot arrange cheaply: rates under 1e-6 (encoding/json's switch to
// exponent form needs a million impressions behind one check-in),
// histograms without bounds, and several rollup windows.
func TestEncodersMatchMarshal(t *testing.T) {
	clock := time.Unix(1600000000, 0).UTC()
	a := New(Options{TTL: -1, Window: time.Minute, Now: func() time.Time { return clock }})
	requireEncodersMatchMarshal(t, a) // empty: "rows":null, "[]" windows

	for i := 0; i < 40; i++ {
		clock = clock.Add(20 * time.Second) // 14 windows
		imp := fmt.Sprintf("imp-%d", i)
		camp := fmt.Sprintf("camp-%d", i%7)
		meta := beacon.Meta{Format: []string{"", "display", "video"}[i%3],
			OS: []string{"", "iOS", "Android", "x\"os"}[i%4], SiteType: []string{"app", ""}[i%2]}
		a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Type: beacon.EventServed, At: clock, Meta: meta})
		a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: clock, Meta: meta})
		if i%5 == 0 { // a third solution, and one that only reports in view
			a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: "a-verifier", Type: beacon.EventLoaded, At: clock, Meta: meta})
			a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceCommercial, Type: beacon.EventInView, At: clock, Meta: meta})
		}
		if i%2 == 0 {
			a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventInView, At: clock, Meta: meta})
			a.Observe(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: clock.Add(time.Duration(i) * 700 * time.Millisecond), Meta: meta})
		}
	}
	requireEncodersMatchMarshal(t, a)

	// One check-in and one view behind three million served impressions:
	// measured_rate 3.3e-7; then a viewability rate just as small.
	for i := range a.camps {
		for _, c := range a.camps[i].camps {
			for _, r := range c.rows {
				r.impressions += 3_000_000
				r.served += 3_000_000
				r.srcCounts(beacon.SourceCommercial).measured = 1
				if sc := r.find(beacon.SourceQTag); sc != nil && sc.viewed > 0 {
					sc.viewed, sc.measured = 1, 2_500_000
				}
			}
		}
	}
	snap := a.Snapshot()
	if r := snap.Rows[0].Sources["commercial"].MeasuredRate; !(r > 0 && r < 1e-6) {
		t.Fatalf("fixture measured_rate = %g, want within (0, 1e-6)", r)
	}
	requireEncodersMatchMarshal(t, a)

	// No dwell bounds: one overflow bucket, and "bounds":null.
	clock = time.Unix(1600000000, 0).UTC()
	b := New(Options{TTL: -1, DwellBounds: []float64{}, Now: func() time.Time { return clock }})
	b.Observe(beacon.Event{ImpressionID: "i", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventInView, At: clock})
	b.Observe(beacon.Event{ImpressionID: "i", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: clock.Add(time.Second)})
	if d := b.Snapshot().Dwell; len(d) != 1 || d[0].Dwell.Bounds != nil {
		t.Fatalf("fixture dwell = %+v, want one histogram with nil bounds", d)
	}
	requireEncodersMatchMarshal(t, b)
}

// TestOpenImpressionsMatchesShards: the counter OpenImpressions returns
// equals the locked sum over the shards after ingest, after a TTL sweep
// and after MaxOpen pressure eviction.
func TestOpenImpressionsMatchesShards(t *testing.T) {
	clock := time.Unix(1600000000, 0).UTC()
	a := New(Options{TTL: time.Minute, MaxOpen: 40, Now: func() time.Time { return clock }})
	check := func(stage string, wantOpen func(int) bool) {
		t.Helper()
		if got, sum := a.OpenImpressions(), a.pass.Len(); got != sum || !wantOpen(got) {
			t.Fatalf("%s: OpenImpressions = %d, shards hold %d", stage, got, sum)
		}
	}
	served := func(imp string) beacon.Event {
		return beacon.Event{ImpressionID: imp, CampaignID: "c", Type: beacon.EventServed, At: clock}
	}
	for i := 0; i < 30; i++ {
		a.Observe(served(fmt.Sprintf("early-%d", i)))
	}
	check("after ingest", func(n int) bool { return n == 30 })
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 5; i++ {
		a.Observe(served(fmt.Sprintf("late-%d", i)))
	}
	if ev := a.Sweep(clock); ev != 30 {
		t.Fatalf("sweep evicted %d, want the 30 idle impressions", ev)
	}
	check("after sweep", func(n int) bool { return n == 5 })
	for i := 0; i < 400; i++ {
		a.Observe(served(fmt.Sprintf("flood-%d", i)))
	}
	check("after pressure eviction", func(n int) bool { return n > 0 && n < 405 })
	if a.PressureEvicted() == 0 {
		t.Fatal("MaxOpen never evicted")
	}
}
