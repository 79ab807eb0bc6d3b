package aggregate

import (
	"reflect"
	"testing"
	"time"

	"qtag/internal/beacon"
)

// buildSnapshot ingests events into a fresh aggregator and returns its
// snapshot — the same shape a federated peer would serve.
func buildSnapshot(t *testing.T, events []beacon.Event) Snapshot {
	t.Helper()
	a := New(Options{Now: func() time.Time { return time.Unix(1000, 0) }})
	for _, e := range events {
		a.Observe(e)
	}
	return a.Snapshot()
}

func mev(imp string, typ beacon.EventType, src beacon.Source) beacon.Event {
	return beacon.Event{
		ImpressionID: imp,
		CampaignID:   "c1",
		Source:       src,
		Type:         typ,
		At:           time.Unix(999, 0),
	}
}

func TestMergeAddsDisjointPartitions(t *testing.T) {
	// Node A owns impressions i1, i2; node B owns i3. Together they form
	// the same population a single node would have seen.
	nodeA := buildSnapshot(t, []beacon.Event{
		mev("i1", beacon.EventServed, beacon.SourceQTag),
		mev("i1", beacon.EventLoaded, beacon.SourceQTag),
		mev("i1", beacon.EventInView, beacon.SourceQTag),
		mev("i2", beacon.EventServed, beacon.SourceQTag),
		mev("i2", beacon.EventLoaded, beacon.SourceQTag),
	})
	nodeB := buildSnapshot(t, []beacon.Event{
		mev("i3", beacon.EventServed, beacon.SourceQTag),
		mev("i3", beacon.EventLoaded, beacon.SourceQTag),
		mev("i3", beacon.EventInView, beacon.SourceQTag),
	})
	whole := buildSnapshot(t, []beacon.Event{
		mev("i1", beacon.EventServed, beacon.SourceQTag),
		mev("i1", beacon.EventLoaded, beacon.SourceQTag),
		mev("i1", beacon.EventInView, beacon.SourceQTag),
		mev("i2", beacon.EventServed, beacon.SourceQTag),
		mev("i2", beacon.EventLoaded, beacon.SourceQTag),
		mev("i3", beacon.EventServed, beacon.SourceQTag),
		mev("i3", beacon.EventLoaded, beacon.SourceQTag),
		mev("i3", beacon.EventInView, beacon.SourceQTag),
	})

	merged := Merge(nodeA, nodeB)
	if !reflect.DeepEqual(merged, whole) {
		t.Fatalf("merged snapshot != whole-population snapshot\nmerged: %+v\nwhole:  %+v", merged, whole)
	}
	if len(merged.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(merged.Rows))
	}
	qc := merged.Rows[0].Sources["qtag"]
	if qc.Measured != 3 || qc.Viewed != 2 {
		t.Fatalf("qtag counts = %+v, want Measured=3 Viewed=2", qc)
	}
	// Rates must come from merged counts (2/3), not averaged node rates
	// (which would be (1 + 1/2) / 2 = 0.75).
	if got, want := qc.ViewabilityRate, 2.0/3.0; got != want {
		t.Fatalf("ViewabilityRate = %v, want %v", got, want)
	}
}

func TestMergeOrderInsensitive(t *testing.T) {
	a := buildSnapshot(t, []beacon.Event{
		mev("i1", beacon.EventServed, beacon.SourceQTag),
		mev("i1", beacon.EventLoaded, beacon.SourceCommercial),
	})
	b := buildSnapshot(t, []beacon.Event{
		mev("i2", beacon.EventServed, beacon.SourceQTag),
		mev("i2", beacon.EventLoaded, beacon.SourceQTag),
		mev("i2", beacon.EventInView, beacon.SourceQTag),
	})
	c := buildSnapshot(t, []beacon.Event{
		mev("i3", beacon.EventServed, beacon.SourceCommercial),
	})
	if got, want := Merge(a, b, c), Merge(c, a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge not order-insensitive:\n%+v\nvs\n%+v", got, want)
	}
	// Merging a single snapshot is the identity.
	if got := Merge(b); !reflect.DeepEqual(got, b) {
		t.Fatalf("Merge(single) changed the snapshot:\n%+v\nvs\n%+v", got, b)
	}
	// Zero snapshots merge to the empty snapshot.
	if got := Merge(); len(got.Rows) != 0 || len(got.Dwell) != 0 {
		t.Fatalf("Merge() = %+v, want empty", got)
	}
}

func TestMergeDwellHistograms(t *testing.T) {
	mk := func(imp string, dwellMs int64) []beacon.Event {
		base := time.Unix(999, 0)
		return []beacon.Event{
			{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag, Type: beacon.EventServed, At: base},
			{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag, Type: beacon.EventInView, At: base},
			{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: base.Add(time.Duration(dwellMs) * time.Millisecond)},
		}
	}
	a := buildSnapshot(t, mk("i1", 1500))
	b := buildSnapshot(t, mk("i2", 700))
	merged := Merge(a, b)
	if len(merged.Dwell) != 1 {
		t.Fatalf("dwell rows = %d, want 1", len(merged.Dwell))
	}
	d := merged.Dwell[0].Dwell
	if d.Count != 2 {
		t.Fatalf("dwell count = %d, want 2", d.Count)
	}
	wantSum := int64(1500+700) * int64(time.Millisecond)
	if d.SumNs != wantSum {
		t.Fatalf("dwell sum = %d, want %d", d.SumNs, wantSum)
	}
	var buckets int64
	for _, n := range d.Buckets {
		buckets += n
	}
	if buckets != 2 {
		t.Fatalf("bucket total = %d, want 2", buckets)
	}
}

// Partitions' slices sum to the whole population's, cell by cell and
// in any order — the federated report's Table 2.
func TestMergeSlicesAddsDisjointPartitions(t *testing.T) {
	var parts [3][]beacon.Event
	var all []beacon.Event
	for i := 0; i < 30; i++ {
		imp := "i" + string(rune('a'+i))
		meta := beacon.Meta{OS: []string{"", "iOS", "Android"}[i%3], SiteType: []string{"app", "browser"}[i%2]}
		evs := []beacon.Event{{ImpressionID: imp, CampaignID: "c1", Type: beacon.EventServed, Meta: meta}}
		if i%4 != 0 {
			evs = append(evs, beacon.Event{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceQTag, Type: beacon.EventLoaded, Meta: meta})
		}
		if i%5 == 0 {
			evs = append(evs, beacon.Event{ImpressionID: imp, CampaignID: "c1", Source: beacon.SourceCommercial, Type: beacon.EventInView, Meta: meta})
		}
		parts[i%7%3] = append(parts[i%7%3], evs...)
		all = append(all, evs...)
	}
	slicesOf := func(evs []beacon.Event) []Slice {
		a := New(Options{TTL: -1})
		for _, e := range evs {
			a.Observe(e)
		}
		return a.Slices()
	}
	whole := slicesOf(all)
	p0, p1, p2 := slicesOf(parts[0]), slicesOf(parts[1]), slicesOf(parts[2])
	if got := MergeSlices(p0, p1, p2); !reflect.DeepEqual(got, whole) {
		t.Fatalf("merged slices != whole population's\nmerged: %+v\nwhole:  %+v", got, whole)
	}
	if got := MergeSlices(p2, nil, p0, p1); !reflect.DeepEqual(got, whole) {
		t.Fatalf("merge order changed the slices: %+v", got)
	}
	if len(whole) != 6 {
		t.Fatalf("fixture has %d cells, want 6", len(whole))
	}
}
