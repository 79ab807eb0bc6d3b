package aggregate

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/obs"
)

// fakeClock is a settable arrival clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newTestAgg(clk *fakeClock, ttl time.Duration) *Aggregator {
	return New(Options{Shards: 4, TTL: ttl, Window: time.Minute, MaxWindows: 4, Now: clk.now})
}

func ev(imp, camp string, src beacon.Source, typ beacon.EventType, seq int, format string, at time.Time) beacon.Event {
	return beacon.Event{
		ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, Seq: seq,
		At: at, Meta: beacon.Meta{Format: format},
	}
}

var t0 = time.Unix(1500000000, 0).UTC()

// feed pushes events through a deduplicating store wired to the
// aggregator — the production wiring.
func feed(a *Aggregator, events ...beacon.Event) {
	store := beacon.NewStore()
	store.AddObserver(a.Observe)
	for _, e := range events {
		_ = store.Submit(e)
	}
}

func TestLifecycleClassification(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, -1)
	feed(a,
		// imp-1: served only → not measured.
		ev("imp-1", "c", "", beacon.EventServed, 0, "display", t0),
		// imp-2: served + loaded → measured, not viewed.
		ev("imp-2", "c", "", beacon.EventServed, 0, "display", t0),
		ev("imp-2", "c", beacon.SourceQTag, beacon.EventLoaded, 0, "display", t0),
		// imp-3: full lifecycle → viewed.
		ev("imp-3", "c", "", beacon.EventServed, 0, "display", t0),
		ev("imp-3", "c", beacon.SourceQTag, beacon.EventLoaded, 0, "display", t0),
		ev("imp-3", "c", beacon.SourceQTag, beacon.EventInView, 0, "display", t0.Add(time.Second)),
	)
	snap := a.Snapshot()
	if len(snap.Rows) != 1 {
		t.Fatalf("rows = %d, want 1: %+v", len(snap.Rows), snap.Rows)
	}
	r := snap.Rows[0]
	if r.CampaignID != "c" || r.Format != "display" || r.Impressions != 3 || r.Served != 3 {
		t.Fatalf("row = %+v", r)
	}
	q := r.Sources["qtag"]
	want := SourceCounts{Measured: 2, Viewed: 1, NotViewed: 1, NotMeasured: 1,
		MeasuredRate: 2.0 / 3.0, ViewabilityRate: 0.5}
	if q != want {
		t.Fatalf("qtag counts = %+v, want %+v", q, want)
	}
	// The commercial source never checked in: everything not-measured.
	if c := r.Sources["commercial"]; c.NotMeasured != 3 || c.Measured != 0 {
		t.Fatalf("commercial counts = %+v", c)
	}
}

// TestOutOfOrderArrival: in-view before loaded, out-of-view before
// in-view — the final classification and dwell must not depend on
// arrival order.
func TestOutOfOrderArrival(t *testing.T) {
	clk := &fakeClock{t: t0}
	events := []beacon.Event{
		ev("i", "c", beacon.SourceQTag, beacon.EventOutOfView, 0, "", t0.Add(3*time.Second)),
		ev("i", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0.Add(1*time.Second)),
		ev("i", "c", beacon.SourceQTag, beacon.EventLoaded, 0, "", t0),
		ev("i", "c", "", beacon.EventServed, 0, "", t0),
	}
	var snaps []Snapshot
	// Forward, reversed, and rotated arrival orders.
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 3, 0, 1}} {
		a := newTestAgg(clk, -1)
		for _, i := range order {
			feedOne(a, events[i])
		}
		snaps = append(snaps, a.Snapshot())
	}
	for i := 1; i < len(snaps); i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("order %d diverges:\n got %+v\nwant %+v", i, snaps[i], snaps[0])
		}
	}
	q := snaps[0].Rows[0].Sources["qtag"]
	if q.Viewed != 1 || q.NotViewed != 0 || q.NotMeasured != 0 {
		t.Fatalf("qtag = %+v", q)
	}
	if len(snaps[0].Dwell) != 1 || snaps[0].Dwell[0].Dwell.Count != 1 ||
		snaps[0].Dwell[0].Dwell.SumNs != int64(2*time.Second) {
		t.Fatalf("dwell = %+v", snaps[0].Dwell)
	}
}

// feedOne submits a single event through a throwaway store-less path:
// callers guarantee first-seen semantics themselves.
func feedOne(a *Aggregator, e beacon.Event) { a.Observe(e) }

func TestDwellCyclesAndClamp(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, -1)
	feed(a,
		// Two full cycles: 1s and 4s dwell.
		ev("i", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0),
		ev("i", "c", beacon.SourceQTag, beacon.EventOutOfView, 0, "", t0.Add(time.Second)),
		ev("i", "c", beacon.SourceQTag, beacon.EventInView, 1, "", t0.Add(2*time.Second)),
		ev("i", "c", beacon.SourceQTag, beacon.EventOutOfView, 1, "", t0.Add(6*time.Second)),
		// Skewed pair (out before in on the clock): clamps to 0.
		ev("j", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0.Add(time.Second)),
		ev("j", "c", beacon.SourceQTag, beacon.EventOutOfView, 0, "", t0),
		// Open cycle: no sample.
		ev("k", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0),
	)
	if got := a.DwellPairs(); got != 3 {
		t.Fatalf("pairs = %d, want 3", got)
	}
	snap := a.Snapshot()
	if len(snap.Dwell) != 1 {
		t.Fatalf("dwell rows = %+v", snap.Dwell)
	}
	d := snap.Dwell[0].Dwell
	if d.Count != 3 || d.SumNs != int64(5*time.Second) {
		t.Fatalf("dwell = %+v", d)
	}
	if p := d.Quantile(0.5); p <= 0 || p > 5 {
		t.Fatalf("p50 = %v", p)
	}
}

// TestFormatMigration: an impression whose events disagree on format
// settles in the lexicographically smallest non-empty bucket, moving
// every contribution with it, in any arrival order.
func TestFormatMigration(t *testing.T) {
	clk := &fakeClock{t: t0}
	events := []beacon.Event{
		ev("i", "c", "", beacon.EventServed, 0, "video", t0),
		ev("i", "c", beacon.SourceQTag, beacon.EventLoaded, 0, "display", t0),
		ev("i", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0),
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		a := newTestAgg(clk, -1)
		for _, i := range order {
			feedOne(a, events[i])
		}
		snap := a.Snapshot()
		if len(snap.Rows) != 1 {
			t.Fatalf("order %v: rows = %+v (migration must drain the old row)", order, snap.Rows)
		}
		r := snap.Rows[0]
		if r.Format != "display" || r.Impressions != 1 || r.Served != 1 {
			t.Fatalf("order %v: row = %+v", order, r)
		}
		if q := r.Sources["qtag"]; q.Viewed != 1 || q.Measured != 1 || q.NotViewed != 0 {
			t.Fatalf("order %v: qtag = %+v", order, q)
		}
	}
}

func TestTTLEvictionBoundsMemoryAndFreezesTotals(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, 10*time.Minute)
	store := beacon.NewStore()
	store.AddObserver(a.Observe)
	for i := 0; i < 500; i++ {
		imp := "imp-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		store.Submit(ev(imp, "c", "", beacon.EventServed, 0, "", t0))
		store.Submit(ev(imp, "c", beacon.SourceQTag, beacon.EventLoaded, 0, "", t0))
	}
	if got := a.OpenImpressions(); got != 500 {
		t.Fatalf("open = %d, want 500", got)
	}
	before := a.Snapshot()

	// Not idle long enough: nothing goes.
	clk.t = t0.Add(5 * time.Minute)
	if n := a.Sweep(clk.t); n != 0 {
		t.Fatalf("early sweep evicted %d", n)
	}
	// Past the TTL: everything goes, totals stay.
	clk.t = t0.Add(11 * time.Minute)
	if n := a.Sweep(clk.t); n != 500 {
		t.Fatalf("sweep evicted %d, want 500", n)
	}
	if got := a.OpenImpressions(); got != 0 {
		t.Fatalf("open after sweep = %d", got)
	}
	if a.Evicted() != 500 {
		t.Fatalf("evicted counter = %d", a.Evicted())
	}
	if !reflect.DeepEqual(before, a.Snapshot()) {
		t.Fatal("eviction changed the campaign totals")
	}

	// A late beacon for an evicted impression re-opens it as a fresh
	// impression — internally consistent (buckets still partition), just
	// double counted, which is the documented TTL-too-short tradeoff.
	store.Submit(ev("imp-a-0s", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0))
	r := a.Snapshot().Rows[0]
	q := r.Sources["qtag"]
	if q.Viewed+q.NotViewed+q.NotMeasured != r.Impressions {
		t.Fatalf("partition invariant broken after re-open: %+v of %d", q, r.Impressions)
	}
}

func TestSweepDisabled(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, -1)
	feed(a, ev("i", "c", "", beacon.EventServed, 0, "", t0))
	clk.t = t0.Add(24 * time.Hour)
	if n := a.Sweep(clk.t); n != 0 {
		t.Fatalf("disabled TTL evicted %d", n)
	}
	if a.OpenImpressions() != 1 {
		t.Fatal("state dropped with eviction disabled")
	}
}

func TestWindowsRollupAndEviction(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := New(Options{Shards: 1, TTL: -1, Window: time.Minute, MaxWindows: 2, Now: clk.now})
	feed(a,
		ev("i1", "c", "", beacon.EventServed, 0, "", t0),
		ev("i1", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0),
	)
	clk.t = t0.Add(time.Minute)
	feed(a, ev("i2", "c", "", beacon.EventServed, 0, "", t0))
	ws := a.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	w0 := ws[0].Campaigns["c"]
	if w0.Events != 2 || w0.Impressions != 1 || w0.Viewed != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	// Two slots later: both earlier windows fall off the retention
	// horizon (the intervening slot is empty, so one window remains).
	clk.t = t0.Add(3 * time.Minute)
	feed(a, ev("i3", "c", "", beacon.EventServed, 0, "", t0))
	ws = a.Windows()
	if len(ws) != 1 {
		t.Fatalf("retained windows = %d, want 1: %+v", len(ws), ws)
	}
	if !ws[0].Start.Equal(t0.Add(3 * time.Minute)) {
		t.Fatalf("retained window starts %v, want %v", ws[0].Start, t0.Add(3*time.Minute))
	}
}

// TestWindowsBoundedWhenClockStepsBack: the ring evicts relative to the
// newest slot it has seen, so an arrival clock that steps back opens no
// window past the horizon — the events still count on the campaign rows
// — and never holds more than MaxWindows; a step back within the
// horizon opens its window in order.
func TestWindowsBoundedWhenClockStepsBack(t *testing.T) {
	clk := &fakeClock{t: t0.Add(10 * time.Hour)}
	a := New(Options{Shards: 1, TTL: -1, Window: time.Minute, MaxWindows: 3, Now: clk.now})
	for i := 0; i <= 10; i++ {
		feed(a, ev("back-"+strconv.Itoa(i), "c", "", beacon.EventServed, 0, "", t0))
		if ws := a.Windows(); len(ws) != 1 {
			t.Fatalf("after %d one-hour steps back: %d windows, want the newest alone", i, len(ws))
		}
		clk.t = clk.t.Add(-time.Hour)
	}
	if r := a.Snapshot().Rows; len(r) != 1 || r[0].Impressions != 11 {
		t.Fatalf("rows = %+v, want the 11 impressions counted", r)
	}
	clk.t = t0.Add(10*time.Hour - time.Minute) // one window back: inside the horizon
	feed(a, ev("inside", "c", "", beacon.EventServed, 0, "", t0))
	clk.t = t0.Add(10*time.Hour + 2*time.Minute) // the first window leaves the horizon
	feed(a, ev("ahead", "c", "", beacon.EventServed, 0, "", t0))
	ws := a.Windows()
	if len(ws) != 2 || !ws[0].Start.Equal(t0.Add(10*time.Hour)) || !ws[1].Start.Equal(clk.t) {
		t.Fatalf("windows = %+v, want the 10h and 10h02m windows", ws)
	}
	if got := ws[0].Campaigns["c"].Events; got != 1 {
		t.Fatalf("the 10h window holds %d events, want only its own", got)
	}
}

func TestRegisterMetrics(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, 10*time.Minute)
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg)
	feed(a,
		ev("i", "c", beacon.SourceQTag, beacon.EventInView, 0, "", t0),
		ev("i", "c", beacon.SourceQTag, beacon.EventOutOfView, 0, "", t0.Add(time.Second)),
	)
	vals := reg.Values()
	for name, want := range map[string]float64{
		"qtag_aggregate_updates_total":     2,
		"qtag_aggregate_open_impressions":  1,
		"qtag_aggregate_dwell_pairs_total": 1,
		"qtag_aggregate_campaign_rows":     1,
		"qtag_aggregate_evicted_total":     0,
	} {
		if got := vals[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if vals["qtag_aggregate_dwell_seconds_count"] != 1 {
		t.Errorf("dwell histogram count = %v", vals["qtag_aggregate_dwell_seconds_count"])
	}
	if !strings.Contains(reg.Render(), "qtag_aggregate_open_impressions") {
		t.Error("exposition missing aggregate gauges")
	}
}

// TestObserveIgnoresInvalid: the observer contract says only validated
// events arrive, but a stray invalid event must be a no-op, not a panic.
func TestObserveIgnoresInvalid(t *testing.T) {
	clk := &fakeClock{t: t0}
	a := newTestAgg(clk, -1)
	a.Observe(beacon.Event{Type: beacon.EventServed}) // no ids
	a.Observe(beacon.Event{ImpressionID: "i", CampaignID: "c", Type: "bogus"})
	if a.Updates() != 0 || len(a.Snapshot().Rows) != 0 {
		t.Fatal("invalid events were aggregated")
	}
}
