package detect_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	. "qtag/internal/detect"
)

var t0 = time.Unix(1700000000, 0).UTC()

// harness wires a detector to a dedup store on both hooks — the exact
// production wiring.
func harness(opts Options) (*beacon.Store, *Detector) {
	det := New(opts)
	store := beacon.NewStore()
	store.AddObserver(det.Observe)
	store.AddDupObserver(det.ObserveDup)
	return store, det
}

// rowFor finds one campaign × source row in a snapshot.
func rowFor(t *testing.T, s Snapshot, campaign, source string) ScoreRow {
	t.Helper()
	for _, r := range s.Rows {
		if r.CampaignID == campaign && r.Source == source {
			return r
		}
	}
	t.Fatalf("no row for %s/%s in %+v", campaign, source, s.Rows)
	return ScoreRow{}
}

// honestImpression submits a full clean lifecycle: served, loaded,
// in-view, out-of-view after dwell, spread over distinct placements.
func honestImpression(store *beacon.Store, camp string, i int, at time.Time, dwell time.Duration) {
	imp := fmt.Sprintf("%s-imp-%d", camp, i)
	meta := beacon.Meta{AdSize: "300x250", Slot: fmt.Sprintf("slot-%d", i%24)}
	store.Submit(beacon.Event{ImpressionID: imp, CampaignID: camp, Type: beacon.EventServed, At: at, Meta: meta})
	store.Submit(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: at.Add(50 * time.Millisecond), Meta: meta})
	store.Submit(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventInView, At: at.Add(300 * time.Millisecond), Meta: meta})
	store.Submit(beacon.Event{ImpressionID: imp, CampaignID: camp, Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: at.Add(300*time.Millisecond + dwell), Meta: meta})
}

// TestHonestTrafficScoresZero: a clean campaign never flags and every
// contribution stays at zero.
func TestHonestTrafficScoresZero(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 60; i++ {
		honestImpression(store, "camp-honest", i, t0.Add(time.Duration(i)*3*time.Second), 2500*time.Millisecond+time.Duration(i)*37*time.Millisecond)
	}
	snap := det.Snapshot()
	if len(snap.Flagged) != 0 {
		t.Fatalf("honest traffic flagged campaigns %v", snap.Flagged)
	}
	for _, r := range snap.Rows {
		if r.Score != 0 {
			t.Fatalf("honest row %s/%s scored %.2f: %+v", r.CampaignID, r.Source, r.Score, r.Contribs)
		}
	}
}

// TestRateDetector: a bot burst minting distinct impressions at
// hundreds per second trips the rate detector; the slow honest
// campaign next to it does not.
func TestRateDetector(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 500; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("bot-%d", i),
			CampaignID:   "camp-burst",
			Type:         beacon.EventServed,
			At:           t0.Add(time.Duration(i) * 4 * time.Millisecond), // 250/s
		})
	}
	for i := 0; i < 100; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("slow-%d", i),
			CampaignID:   "camp-slow",
			Type:         beacon.EventServed,
			At:           t0.Add(time.Duration(i) * 2 * time.Second),
		})
	}
	snap := det.Snapshot()
	burst := rowFor(t, snap, "camp-burst", SourceDSP)
	if burst.Contribs[DetectorRate] < 0.5 || !burst.Flagged {
		t.Fatalf("burst row not flagged by rate: %+v", burst)
	}
	slow := rowFor(t, snap, "camp-slow", SourceDSP)
	if slow.Contribs[DetectorRate] != 0 {
		t.Fatalf("slow row tripped rate detector: %+v", slow)
	}
	if len(snap.Flagged) != 1 || snap.Flagged[0] != "camp-burst" {
		t.Fatalf("flagged = %v, want [camp-burst]", snap.Flagged)
	}
}

// TestRateDetectorLongHonestRun: the ring aliases once the campaign
// outlives its aggregate.RateSlots buckets, folding many buckets into
// each slot. The
// score must normalize that accumulation away — a modest honest rate
// sustained for many ring wraps (~10 ev/s for 16 min here, ~9,600
// events over 15 wraps of the default 64×1s ring) stays at zero, while
// a genuinely high sustained rate over the same aliased extent still
// scores.
func TestRateDetectorLongHonestRun(t *testing.T) {
	store, det := harness(Options{})
	const honestPerSec, honestSecs = 10, 960
	for s := 0; s < honestSecs; s++ {
		for j := 0; j < honestPerSec; j++ {
			store.Submit(beacon.Event{
				ImpressionID: fmt.Sprintf("h-%d-%d", s, j),
				CampaignID:   "camp-long-honest",
				Type:         beacon.EventServed,
				At:           t0.Add(time.Duration(s)*time.Second + time.Duration(j)*100*time.Millisecond),
			})
		}
	}
	const botPerSec, botSecs = 200, 400
	for s := 0; s < botSecs; s++ {
		for j := 0; j < botPerSec; j++ {
			store.Submit(beacon.Event{
				ImpressionID: fmt.Sprintf("b-%d-%d", s, j),
				CampaignID:   "camp-long-bot",
				Type:         beacon.EventServed,
				At:           t0.Add(time.Duration(s)*time.Second + time.Duration(j)*5*time.Millisecond),
			})
		}
	}
	snap := det.Snapshot()
	honest := rowFor(t, snap, "camp-long-honest", SourceDSP)
	if honest.Contribs[DetectorRate] != 0 || honest.Flagged {
		t.Fatalf("long honest run tripped the rate detector: %+v", honest)
	}
	bot := rowFor(t, snap, "camp-long-bot", SourceDSP)
	if bot.Contribs[DetectorRate] < 0.5 || !bot.Flagged {
		t.Fatalf("sustained bot rate not flagged after aliasing normalization: %+v", bot)
	}
}

// TestFlaggedCampaignsMatchesSnapshot: the cheap scrape-path count
// agrees with the full snapshot's flagged set on a mixed workload.
func TestFlaggedCampaignsMatchesSnapshot(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 60; i++ {
		honestImpression(store, "camp-clean", i, t0.Add(time.Duration(i)*3*time.Second), 2500*time.Millisecond)
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("spoof-%d", i), CampaignID: "camp-spoof",
			Source: beacon.SourceQTag, Type: beacon.EventInView, At: t0.Add(time.Duration(i) * time.Second),
		})
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("px-%d", i), CampaignID: "camp-pixel",
			Type: beacon.EventServed, At: t0.Add(time.Duration(i) * time.Second),
			Meta: beacon.Meta{AdSize: "1x1"},
		})
	}
	snap := det.Snapshot()
	if got, want := det.FlaggedCampaigns(), len(snap.Flagged); got != want {
		t.Fatalf("FlaggedCampaigns() = %d, snapshot flags %v", got, snap.Flagged)
	}
	if len(snap.Flagged) != 2 {
		t.Fatalf("workload should flag exactly the two fraud campaigns, got %v", snap.Flagged)
	}
}

// TestDwellDetector: dwell massed exactly at the viewability
// threshold (scripted beacons) and at ~0 (hidden inventory) both
// trip the dwell detector.
func TestDwellDetector(t *testing.T) {
	store, det := harness(Options{})
	at := t0
	for i := 0; i < 30; i++ {
		imp := fmt.Sprintf("exact-%d", i)
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-exact", Source: beacon.SourceQTag, Type: beacon.EventInView, At: at})
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-exact", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: at.Add(time.Second)})
		imp = fmt.Sprintf("zero-%d", i)
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-zero", Source: beacon.SourceQTag, Type: beacon.EventInView, At: at})
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-zero", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: at.Add(5 * time.Millisecond)})
		at = at.Add(2 * time.Second)
	}
	snap := det.Snapshot()
	for _, camp := range []string{"camp-exact", "camp-zero"} {
		r := rowFor(t, snap, camp, "qtag")
		if r.Contribs[DetectorDwell] != 1 || !r.Flagged {
			t.Fatalf("%s not flagged by dwell: %+v", camp, r)
		}
	}
}

// TestSequenceDetector: spoofed in-view beacons with no served and no
// loaded behind them max the sequence score; a late-arriving served +
// loaded un-counts the violations (net-adjusting flags), so ordering
// noise cannot fake fraud.
func TestSequenceDetector(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 40; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("spoof-%d", i),
			CampaignID:   "camp-spoof",
			Source:       beacon.SourceQTag,
			Type:         beacon.EventInView,
			At:           t0.Add(time.Duration(i) * time.Second),
		})
	}
	r := rowFor(t, det.Snapshot(), "camp-spoof", "qtag")
	if r.Contribs[DetectorSequence] != 1 || !r.Flagged {
		t.Fatalf("spoofed in-views not flagged by sequence: %+v", r)
	}

	// Late lifecycle events arrive: every violation un-counts.
	for i := 0; i < 40; i++ {
		imp := fmt.Sprintf("spoof-%d", i)
		at := t0.Add(time.Duration(i) * time.Second)
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-spoof", Type: beacon.EventServed, At: at})
		store.Submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-spoof", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: at})
	}
	r = rowFor(t, det.Snapshot(), "camp-spoof", "qtag")
	if r.Contribs[DetectorSequence] != 0 {
		t.Fatalf("late lifecycle did not clear sequence violations: %+v", r)
	}
}

// TestDuplicateDetector: replayed byte-identical beacons are absorbed
// by the store's dedup but surface as a flood score.
func TestDuplicateDetector(t *testing.T) {
	store, det := harness(Options{})
	events := make([]beacon.Event, 0, 30)
	for i := 0; i < 30; i++ {
		e := beacon.Event{
			ImpressionID: fmt.Sprintf("replay-%d", i),
			CampaignID:   "camp-replay",
			Source:       beacon.SourceQTag,
			Type:         beacon.EventLoaded,
			At:           t0.Add(time.Duration(i) * time.Second),
		}
		events = append(events, e)
		store.Submit(e)
	}
	for pass := 0; pass < 5; pass++ { // the replay farm
		for _, e := range events {
			store.Submit(e)
		}
	}
	r := rowFor(t, det.Snapshot(), "camp-replay", "qtag")
	if r.Dups != 150 || r.Events != 30 {
		t.Fatalf("dup accounting wrong: %+v", r)
	}
	if r.Contribs[DetectorDuplicate] != 1 || !r.Flagged {
		t.Fatalf("replay flood not flagged by duplicate: %+v", r)
	}
	if det.DupEvents() != 150 {
		t.Fatalf("DupEvents = %d, want 150", det.DupEvents())
	}
}

// TestGeometryDetector: 1×1 creative sizes and single-slot in-view
// concentration each trip the geometry detector.
func TestGeometryDetector(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("px-%d", i), CampaignID: "camp-pixel",
			Type: beacon.EventServed, At: at, Meta: beacon.Meta{AdSize: "1x1"},
		})
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("stack-%d", i), CampaignID: "camp-stack",
			Source: beacon.SourceQTag, Type: beacon.EventInView, At: at,
			Meta: beacon.Meta{AdSize: "300x250", Slot: "the-one-slot"},
		})
	}
	snap := det.Snapshot()
	px := rowFor(t, snap, "camp-pixel", SourceDSP)
	if px.Contribs[DetectorGeometry] != 1 || !px.Flagged {
		t.Fatalf("pixel stuffing not flagged by geometry: %+v", px)
	}
	st := rowFor(t, snap, "camp-stack", "qtag")
	if st.Contribs[DetectorGeometry] != 1 || !st.Flagged {
		t.Fatalf("stacking not flagged by geometry: %+v", st)
	}
}

// TestMinEventsGate: a tiny row never flags no matter how anomalous.
func TestMinEventsGate(t *testing.T) {
	store, det := harness(Options{MinEvents: 25})
	for i := 0; i < 5; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("s-%d", i), CampaignID: "camp-tiny",
			Source: beacon.SourceQTag, Type: beacon.EventInView, At: t0,
		})
	}
	r := rowFor(t, det.Snapshot(), "camp-tiny", "qtag")
	if r.Flagged {
		t.Fatalf("5-event row flagged: %+v", r)
	}
	if r.Score == 0 {
		t.Fatalf("contributions should still be reported: %+v", r)
	}
}

// TestScoresBounded: every contribution and composite stays in [0,1].
func TestScoresBounded(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 2000; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("x-%d", i%50),
			CampaignID:   fmt.Sprintf("c-%d", i%7),
			Source:       beacon.SourceQTag,
			Type:         []beacon.EventType{beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}[i%3],
			At:           t0.Add(time.Duration(i%13) * time.Millisecond),
			Seq:          i % 2,
			Meta:         beacon.Meta{AdSize: "1x1", Slot: "s"},
		})
	}
	for _, r := range det.Snapshot().Rows {
		if r.Score < 0 || r.Score > 1 {
			t.Fatalf("composite out of range: %+v", r)
		}
		for k, v := range r.Contribs {
			if v < 0 || v > 1 {
				t.Fatalf("contribution %s out of range: %+v", k, r)
			}
		}
	}
}

// TestSweepAndPressureEviction: the TTL sweeps and the MaxOpen cap of
// the aggregator a detector scores bound the open working set while the
// score rows freeze rather than reset.
func TestSweepAndPressureEviction(t *testing.T) {
	clock := t0
	agg := aggregate.New(aggregate.Options{TTL: time.Minute, MaxOpen: 50, Now: func() time.Time { return clock }})
	det := Over(agg, Options{})
	store := beacon.NewStore()
	store.AddObserver(det.Observe)
	for i := 0; i < 200; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("i-%d", i), CampaignID: "c",
			Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: t0,
		})
	}
	// The pressure cap is per-shard approximate; allow one straggler
	// per shard over the cap.
	if open := agg.OpenImpressions(); open > 50+16 {
		t.Fatalf("open = %d, cap 50 not enforced", open)
	}
	clock = clock.Add(2 * time.Minute)
	if n := agg.Sweep(clock); n == 0 {
		t.Fatal("sweep evicted nothing")
	}
	if agg.OpenImpressions() != 0 {
		t.Fatalf("open = %d after sweep", agg.OpenImpressions())
	}
	r := rowFor(t, det.Snapshot(), "c", "qtag")
	if r.Events != 200 {
		t.Fatalf("eviction reset row totals: %+v", r)
	}
}

// TestDuplicateWithoutFirstSeen: a duplicate of a campaign no first-seen
// event has reached still makes its fraud row, and nothing in the
// campaigns section: no row, no count in Campaigns.
func TestDuplicateWithoutFirstSeen(t *testing.T) {
	agg := aggregate.New(aggregate.Options{})
	det := Over(agg, Options{})
	det.ObserveDup(beacon.Event{ImpressionID: "i", CampaignID: "camp-dup", Type: beacon.EventServed, At: t0})
	if r := rowFor(t, det.Snapshot(), "camp-dup", SourceDSP); r.Dups != 1 || r.Events != 0 {
		t.Fatalf("fraud row = %+v, want one duplicate and no event", r)
	}
	if rows, n := agg.Snapshot().Rows, agg.Campaigns(); len(rows) != 0 || n != 0 {
		t.Fatalf("the campaigns section holds %d rows and counts %d campaigns, want none", len(rows), n)
	}
}

// TestTextRender: the table renderer names flagged campaigns and
// their leading detector.
func TestTextRender(t *testing.T) {
	store, det := harness(Options{})
	for i := 0; i < 40; i++ {
		store.Submit(beacon.Event{
			ImpressionID: fmt.Sprintf("spoof-%d", i), CampaignID: "camp-bad",
			Source: beacon.SourceQTag, Type: beacon.EventInView, At: t0.Add(time.Duration(i) * time.Second),
		})
	}
	out := det.Snapshot().Text()
	for _, want := range []string{"camp-bad", "FLAG", "sequence=1.00", "flagged campaigns: camp-bad"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if empty := (Snapshot{}).Text(); !strings.Contains(empty, "no scored rows") {
		t.Fatalf("empty render = %q", empty)
	}
}
