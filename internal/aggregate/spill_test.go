// What an open impression cannot hold inline spills (imptable): these
// tests put the spill paths — a third solution, a third open cycle, a key
// past the inline length, an event time no int64 of nanoseconds holds, a
// span that saturates time.Duration, a format migration after the spill —
// through the equivalence properties, against an oracle that shares no
// code with the aggregator.
package aggregate

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/simrand"
)

// rowKey and dwellKey address the oracle's rows and histograms.
type (
	rowKey   struct{ Campaign, Format string }
	dwellKey struct{ Campaign, Source string }
)

// naiveSnapshot classifies a deduplicated event set the slow, obvious
// way — whole sets per impression, nothing incremental — and returns the
// rows and per-histogram (count, sum) the aggregator must report.
func naiveSnapshot(events []beacon.Event) (rows []Row, dwell map[dwellKey][2]int64) {
	type cycle struct{ in, out *time.Time }
	type imp struct {
		campaign, format string
		served           bool
		loaded, viewed   map[beacon.Source]bool
		cycles           map[string]*cycle
	}
	seen := map[[5]string]bool{}
	imps := map[[2]string]*imp{}
	for _, e := range events {
		id := [5]string{e.CampaignID, e.ImpressionID, string(e.Source), string(e.Type), fmt.Sprint(e.Seq)}
		if e.Validate() != nil || seen[id] {
			continue
		}
		seen[id] = true
		k := [2]string{e.CampaignID, e.ImpressionID}
		st := imps[k]
		if st == nil {
			st = &imp{campaign: e.CampaignID, loaded: map[beacon.Source]bool{}, viewed: map[beacon.Source]bool{}, cycles: map[string]*cycle{}}
			imps[k] = st
		}
		if f := e.Meta.Format; f != "" && (st.format == "" || f < st.format) {
			st.format = f
		}
		at := e.At
		c := st.cycles[string(e.Source)+"\x00"+fmt.Sprint(e.Seq)]
		if c == nil && (e.Type == beacon.EventInView || e.Type == beacon.EventOutOfView) {
			c = &cycle{}
			st.cycles[string(e.Source)+"\x00"+fmt.Sprint(e.Seq)] = c
		}
		switch e.Type {
		case beacon.EventServed:
			st.served = true
		case beacon.EventLoaded:
			st.loaded[e.Source] = true
		case beacon.EventInView:
			st.viewed[e.Source] = true
			c.in = &at
		case beacon.EventOutOfView:
			c.out = &at
		}
	}
	byRow := map[rowKey]*Row{}
	dwell = map[dwellKey][2]int64{}
	for _, st := range imps {
		k := rowKey{st.campaign, st.format}
		r := byRow[k]
		if r == nil {
			r = &Row{CampaignID: k.Campaign, Format: k.Format, Sources: map[string]SourceCounts{"qtag": {}, "commercial": {}}}
			byRow[k] = r
		}
		r.Impressions++
		if st.served {
			r.Served++
		}
		for name, c := range st.cycles {
			if c.in == nil || c.out == nil {
				continue
			}
			d := c.out.Sub(*c.in)
			if d < 0 {
				d = 0
			}
			dk := dwellKey{st.campaign, name[:strings.IndexByte(name, 0)]}
			h := dwell[dk]
			dwell[dk] = [2]int64{h[0] + 1, h[1] + int64(d)}
		}
	}
	for _, st := range imps {
		r := byRow[rowKey{st.campaign, st.format}]
		solutions := map[beacon.Source]bool{}
		for s := range st.loaded {
			solutions[s] = true
		}
		for s := range st.viewed {
			solutions[s] = true
		}
		for s := range solutions {
			sc := r.Sources[string(s)]
			if st.loaded[s] {
				sc.Measured++
			}
			switch {
			case st.viewed[s]:
				sc.Viewed++
			case st.loaded[s]:
				sc.NotViewed++
			}
			r.Sources[string(s)] = sc
		}
	}
	for _, r := range byRow {
		for s, sc := range r.Sources {
			sc.NotMeasured = r.Impressions - sc.Viewed - sc.NotViewed
			if r.Served > 0 {
				sc.MeasuredRate = float64(sc.Measured) / float64(r.Served)
			}
			if sc.Measured > 0 {
				sc.ViewabilityRate = float64(sc.Viewed) / float64(sc.Measured)
			}
			r.Sources[s] = sc
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CampaignID != rows[j].CampaignID {
			return rows[i].CampaignID < rows[j].CampaignID
		}
		return rows[i].Format < rows[j].Format
	})
	return rows, dwell
}

// assertMatchesNaive compares a snapshot with the naive oracle's.
func assertMatchesNaive(t *testing.T, label string, got Snapshot, events []beacon.Event) {
	t.Helper()
	rows, dwell := naiveSnapshot(events)
	if !reflect.DeepEqual(got.Rows, rows) {
		t.Fatalf("%s: rows differ from the naive recompute\n got: %+v\nwant: %+v", label, got.Rows, rows)
	}
	if len(got.Dwell) != len(dwell) {
		t.Fatalf("%s: %d dwell histograms, the naive recompute has %d", label, len(got.Dwell), len(dwell))
	}
	for _, d := range got.Dwell {
		if want := dwell[dwellKey{d.CampaignID, d.Source}]; d.Dwell.Count != want[0] || d.Dwell.SumNs != want[1] {
			t.Fatalf("%s: dwell %s/%s = %d pairs %d ns, the naive recompute has %d pairs %d ns",
				label, d.CampaignID, d.Source, d.Dwell.Count, d.Dwell.SumNs, want[0], want[1])
		}
	}
}

// spillStream is aggStream plus impressions that do not fit an
// imptable.Entry, every one of them disagreeing on format so that a
// migration finds the spilled state.
func spillStream(seed uint64, n int) []beacon.Event {
	out := aggStream(seed, n)
	at := time.Unix(1500000000, 0).UTC()
	ev := func(imp, camp string, src beacon.Source, typ beacon.EventType, seq int, format string, at time.Time) {
		out = append(out, beacon.Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, Seq: seq, At: at, Meta: beacon.Meta{Format: format}})
	}
	// Three solutions, each with an open cycle at once; the third lives in
	// the overflow, and so does its stamp.
	ev("three", "camp-0", "", beacon.EventServed, 0, "video", at)
	for i, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial, "verifier-3", "verifier-4"} {
		ev("three", "camp-0", src, beacon.EventLoaded, 0, "video", at)
		ev("three", "camp-0", src, beacon.EventInView, 0, "video", at.Add(time.Duration(i)*time.Second))
	}
	for i, src := range []beacon.Source{"verifier-4", beacon.SourceQTag, "verifier-3", beacon.SourceCommercial} {
		ev("three", "camp-0", src, beacon.EventOutOfView, 0, "video", at.Add(time.Duration(10+i)*time.Second))
	}
	// …and a late event with a smaller format, after the spill.
	ev("three", "camp-0", "verifier-3", beacon.EventInView, 1, "banner", at)

	// One solution, three cycles open at once, seq values an int16 does
	// not hold among them.
	for _, seq := range []int{0, 1, 2, math.MaxInt16 + 1, -70000} {
		ev("cycles", "camp-1", beacon.SourceQTag, beacon.EventOutOfView, seq, "video", at.Add(time.Duration(seq%7)*time.Second))
	}
	for _, seq := range []int{-70000, 2, math.MaxInt16 + 1, 0} {
		ev("cycles", "camp-1", beacon.SourceQTag, beacon.EventInView, seq, "interstitial", at)
	}

	// A key past the inline length, by a little and by several blocks.
	for _, id := range []string{"imp-" + strings.Repeat("u", 40), "imp-" + strings.Repeat("v", 300)} {
		ev(id, "camp-2", "", beacon.EventServed, 0, "video", at)
		ev(id, "camp-2", beacon.SourceQTag, beacon.EventLoaded, 0, "", at)
		ev(id, "camp-2", beacon.SourceQTag, beacon.EventInView, 0, "banner", at)
		ev(id, "camp-2", beacon.SourceQTag, beacon.EventOutOfView, 0, "video", at.Add(1500*time.Millisecond))
	}

	// Spans that saturate time.Duration: both ends inside the int64
	// nanosecond range (inline stamps), and one end outside it (overflow).
	early, late := time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2250, 6, 1, 0, 0, 0, 1, time.UTC)
	ev("saturates", "camp-1", beacon.SourceCommercial, beacon.EventInView, 0, "video", early)
	ev("saturates", "camp-1", beacon.SourceCommercial, beacon.EventOutOfView, 0, "video", late)
	ev("saturates", "camp-1", beacon.SourceCommercial, beacon.EventInView, 1, "video", late) // negative span: clamps to 0
	ev("saturates", "camp-1", beacon.SourceCommercial, beacon.EventOutOfView, 1, "video", early)
	ev("year-one", "camp-2", beacon.SourceQTag, beacon.EventInView, 0, "", time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC))
	ev("year-one", "camp-2", beacon.SourceQTag, beacon.EventOutOfView, 0, "banner", at)
	return out
}

// TestSpilledStateIsExact: the spill stream, in its own order, reversed
// and shuffled, through one shard and sixteen, gives the snapshot the
// naive oracle computes from the raw events, and the batch Recompute's.
func TestSpilledStateIsExact(t *testing.T) {
	for _, seed := range []uint64{3, 0xd00d} {
		stream := spillStream(seed, 600)
		reversed := make([]beacon.Event, len(stream))
		for i, e := range stream {
			reversed[len(stream)-1-i] = e
		}
		shuffled := append([]beacon.Event(nil), stream...)
		rng := simrand.New(seed).Fork("shuffle")
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for label, order := range map[string][]beacon.Event{"forward": stream, "reverse": reversed, "shuffled": shuffled} {
			for _, shards := range []int{1, 16} {
				opts := testOpts(shards)
				a := New(opts)
				store := beacon.NewStore()
				store.AddObserver(a.Observe)
				kept := beacon.Record(store)
				for _, e := range order {
					if err := store.Submit(e); err != nil {
						t.Fatalf("submit: %v", err)
					}
				}
				label := fmt.Sprintf("seed=%d %s shards=%d", seed, label, shards)
				got, want := a.Snapshot(), Recompute(kept.Events(), opts).Snapshot()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: streaming != batch recompute\n got: %+v\nwant: %+v", label, got, want)
				}
				assertPartition(t, label, got)
				assertMatchesNaive(t, label, got, stream)
				requireEncodersMatchMarshal(t, a)
			}
		}
	}
}

// TestNaiveOracleAgreesOnTheOrdinaryStream keeps the oracle honest: on
// the stream every other equivalence test uses, it and the aggregator
// agree too.
func TestNaiveOracleAgreesOnTheOrdinaryStream(t *testing.T) {
	stream := aggStream(42, 1200)
	assertMatchesNaive(t, "aggStream", Recompute(stream, testOpts(4)).Snapshot(), stream)
}

// TestOpeningAnImpressionDoesNotAllocate: on the honest shape — up to two
// solutions, up to two open cycles — what opening 1 000 impressions
// allocates is slab chunks and index growth, amortised well under a
// tenth of an allocation each.
func TestOpeningAnImpressionDoesNotAllocate(t *testing.T) {
	a := New(Options{TTL: -1, Now: func() time.Time { return t0 }})
	e := beacon.Event{CampaignID: "camp-1", At: t0, Meta: beacon.Meta{Format: "display"}}
	ids := make([]string, 7000) // the first call below, AllocsPerRun's warm-up and its five runs
	for i := range ids {
		ids[i] = fmt.Sprintf("s1-closed-%d", i)
	}
	next := 0
	open := func() {
		for i := 0; i < 1000; i++ {
			e.ImpressionID = ids[next]
			next++
			e.Source, e.Type = "", beacon.EventServed
			a.Observe(e)
			for _, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial} {
				e.Source, e.Type = src, beacon.EventLoaded
				a.Observe(e)
				e.Type = beacon.EventInView
				a.Observe(e)
			}
		}
	}
	open() // rows, windows, histograms and name tables exist from here on
	if perImpression := testing.AllocsPerRun(5, open) / 1000; perImpression >= 0.1 {
		t.Fatalf("%.3f allocations per opened impression, want < 0.1", perImpression)
	}
	if a.OpenImpressions() != len(ids) {
		t.Fatalf("%d impressions open of %d", a.OpenImpressions(), len(ids))
	}
}
