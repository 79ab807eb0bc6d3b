package aggregate

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/imptable"
)

// reopenEvents is one impression's beacons in round 0 — served, a served
// seq past the seen set's bits, three solutions' loaded (the third one
// spills), a dwell cycle and an in-view past the bits — or round 1: new
// cycles of two solutions and a negative seq.
func reopenEvents(imp, round int) []beacon.Event {
	meta := beacon.Meta{Format: []string{"display", "video"}[imp%2], OS: "android", SiteType: "app"}
	at := t0.Add(time.Duration(imp)*time.Second + time.Duration(round)*time.Hour)
	e := func(src beacon.Source, typ beacon.EventType, seq int, dt time.Duration) beacon.Event {
		return beacon.Event{ImpressionID: "imp-" + strconv.Itoa(imp), CampaignID: "camp-" + strconv.Itoa(imp%3),
			Source: src, Type: typ, Seq: seq, At: at.Add(dt), Meta: meta}
	}
	q, c, v := beacon.SourceQTag, beacon.SourceCommercial, beacon.Source("verifier")
	if round == 0 {
		return []beacon.Event{
			e("", beacon.EventServed, 0, 0), e("", beacon.EventServed, 7, 0),
			e(q, beacon.EventLoaded, 0, 300*time.Millisecond), e(c, beacon.EventLoaded, 0, 300*time.Millisecond),
			e(v, beacon.EventLoaded, 0, 400*time.Millisecond),
			e(q, beacon.EventInView, 0, 1500*time.Millisecond), e(q, beacon.EventOutOfView, 0, 3*time.Second),
			e(q, beacon.EventInView, 9, 4*time.Second),
		}
	}
	return []beacon.Event{
		e(q, beacon.EventInView, 1, 5*time.Second), e(q, beacon.EventOutOfView, 1, 7*time.Second),
		e(v, beacon.EventInView, 20, 5*time.Second), e(c, beacon.EventOutOfView, -1, time.Second),
	}
}

// TestDedupExactAcrossCloseAndReopen: an impression the MaxOpen cap or
// the TTL sweep closes keeps a closed record in its store, so every one
// of its beacons re-sent after the close is a duplicate — the store
// keeps no more events, the duplicate observers fire once each, nothing
// is folded — and a new beacon reopens it: first-seen, counted as a
// fresh impression, exactly as an aggregator fed only first-seen events
// by a dedup of its own counts it. A bare store closes nothing and dedups
// the same way.
func TestDedupExactAcrossCloseAndReopen(t *testing.T) {
	const impressions = 40
	var first, second []beacon.Event
	for i := 0; i < impressions; i++ {
		first = append(first, reopenEvents(i, 0)...)
		second = append(second, reopenEvents(i, 1)...)
	}
	for _, c := range []struct {
		name   string
		shards int
		opts   *Options // nil: a bare store
	}{
		{"attached, MaxOpen", 1, &Options{Shards: 1, TTL: -1, MaxOpen: 1}},
		{"attached, TTL sweep", 4, &Options{Shards: 4, TTL: time.Minute}},
		{"bare store", 4, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := &fakeClock{t: t0}
			store := beacon.NewStoreWithShards(c.shards)
			// ref is the aggregator as it is fed without the store's
			// records: only first-seen events, by a dedup of the test's own.
			var a, ref *Aggregator
			if c.opts != nil {
				c.opts.Now = clk.now
				a, ref = Attach(store, *c.opts), New(*c.opts)
			}
			var firstSeen, dups int
			store.AddObserver(func(beacon.Event) { firstSeen++ })
			store.AddDupObserver(func(beacon.Event) { dups++ })
			have := map[[5]string]bool{}
			send := func(events []beacon.Event) {
				for _, e := range events {
					if err := store.Submit(e); err != nil {
						t.Fatal(err)
					}
					k := [5]string{e.CampaignID, e.ImpressionID, string(e.Source), string(e.Type), strconv.Itoa(e.Seq)}
					switch {
					case ref == nil:
					case have[k]:
						ref.ObserveDup(e)
					default:
						ref.Observe(e)
					}
					have[k] = true
				}
			}
			fillers := 0
			var stored, wantFirst, wantDups int
			closeAll := func() {
				switch {
				case c.opts != nil && c.opts.MaxOpen > 0: // the last impression opened goes when another opens
					send([]beacon.Event{{ImpressionID: fmt.Sprintf("filler-%d", fillers), CampaignID: "camp-0", Type: beacon.EventServed, At: t0}})
					fillers++
					stored, wantFirst = stored+1, wantFirst+1
				case c.opts != nil:
					clk.t = clk.t.Add(2 * time.Minute)
					if a.Sweep(clk.t) != ref.Sweep(clk.t) {
						t.Fatal("the sweeps closed different impressions")
					}
				}
			}
			closed := func() int {
				n := 0
				store.Impressions(func(t *imptable.Table) { n += t.Closed() })
				return n
			}
			check := func(stage string) {
				t.Helper()
				if store.Len() != stored || firstSeen != wantFirst || dups != wantDups {
					t.Fatalf("%s: %d stored, %d first-seen, %d duplicates; want %d, %d, %d",
						stage, store.Len(), firstSeen, dups, stored, wantFirst, wantDups)
				}
				if a == nil {
					return
				}
				if a.Updates() != int64(wantFirst) || a.DupEvents() != int64(wantDups) {
					t.Fatalf("%s: %d folded and %d duplicates counted, want %d and %d", stage, a.Updates(), a.DupEvents(), wantFirst, wantDups)
				}
				if !reflect.DeepEqual(readAll(a), readAll(ref)) {
					t.Fatalf("%s: the attached aggregator reads\n %+v\nan aggregator fed the first-seen events reads\n %+v", stage, readAll(a), readAll(ref))
				}
				if a.OpenImpressions() != a.openLen() {
					t.Fatalf("%s: OpenImpressions %d, the tables hold %d", stage, a.OpenImpressions(), a.openLen())
				}
			}

			send(first)
			stored, wantFirst = stored+len(first), wantFirst+len(first)
			check("first sent")
			closeAll()
			if want := map[bool]int{true: impressions, false: 0}[a != nil]; closed() != want {
				t.Fatalf("%d closed records, want %d", closed(), want)
			}
			check("closed")

			send(first) // every beacon of a closed impression: duplicates
			wantDups += len(first)
			check("re-sent after the close")

			send(second) // new beacons: first-seen, each impression reopened
			stored, wantFirst = stored+len(second), wantFirst+len(second)
			check("new beacons after the close")
			if a != nil {
				if got, want := totalImpressions(a), int64(2*impressions+fillers); got != want {
					t.Fatalf("%d impressions counted, want %d: each reopened one again", got, want)
				}
			}

			closeAll()
			send(first)
			send(second)
			wantDups += len(first) + len(second)
			check("everything re-sent after the second close")
		})
	}
}

// readAll is everything a reader can get out of an aggregator.
func readAll(a *Aggregator) []any {
	scores := map[string][]Score{}
	a.ScoreRows(func(id string, rows []*Score) {
		for _, r := range rows {
			scores[id] = append(scores[id], *r)
		}
	})
	return []any{a.Snapshot(), a.Slices(), a.CampaignIDs(), a.Windows(), scores, a.OpenImpressions(), a.Evicted()}
}

// totalImpressions sums the impressions of every row.
func totalImpressions(a *Aggregator) int64 {
	var n int64
	for _, r := range a.Snapshot().Rows {
		n += r.Impressions
	}
	return n
}
