// The lifecycle checker: every violation class Violations reports, each
// injected on its own campaign, must come out with its exact count in any
// arrival order, at one shard and at sixteen — and, under `make collide`,
// with every impression key in one of four hash chains.
package detect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/simrand"
	"qtag/internal/viewability"
)

var lcT0 = time.Date(2019, 12, 9, 12, 0, 0, 0, time.UTC)

// lcEvent is one beacon of impression imp on campaign camp, after lcT0;
// src "" makes it a served event.
func lcEvent(camp, imp string, src beacon.Source, typ beacon.EventType, seq int, after time.Duration, format string) beacon.Event {
	return beacon.Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, Seq: seq,
		At: lcT0.Add(after), Meta: beacon.Meta{Format: format}}
}

// lifecycle is an impression's beacons, each qtag's unless it says
// otherwise: served at lcT0 with format, then the solution's loaded,
// in-view and out-of-view at the given offsets; a negative offset leaves
// that beacon out.
func lifecycle(camp, imp, format string, loaded, inView, outOfView time.Duration) []beacon.Event {
	out := []beacon.Event{lcEvent(camp, imp, "", beacon.EventServed, 0, 0, format)}
	for _, b := range []struct {
		typ   beacon.EventType
		after time.Duration
	}{{beacon.EventLoaded, loaded}, {beacon.EventInView, inView}, {beacon.EventOutOfView, outOfView}} {
		if b.after >= 0 {
			out = append(out, lcEvent(camp, imp, beacon.SourceQTag, b.typ, 0, b.after, ""))
		}
	}
	return out
}

const ms = time.Millisecond

// The cases, a campaign each; lifecycleWant is what each must report.
var (
	cleanCase = append(append(lifecycle("clean", "a", "display", 50*ms, 1100*ms, 3*time.Second),
		lifecycle("clean", "b", "display", 50*ms, 1100*ms, 3*time.Second)...),
		lifecycle("clean", "c", "display", 50*ms, 1100*ms, 3*time.Second)...)
	orphanCase   = []beacon.Event{lcEvent("orphan", "ghost", beacon.SourceQTag, beacon.EventLoaded, 0, 0, "")}
	noLoadedCase = []beacon.Event{
		lcEvent("no-loaded", "i", "", beacon.EventServed, 0, 0, ""),
		lcEvent("no-loaded", "i", beacon.SourceCommercial, beacon.EventInView, 0, 2*time.Second, ""),
	}
	orphanOutCase    = lifecycle("orphan-out", "i", "", 0, -1, time.Second)
	shortDisplayCase = lifecycle("short-display", "i", "display", 0, 200*ms, -1) // in-view 200 ms after loaded: 1 s is the least
	shortVideoCase   = lifecycle("short-video", "v", "video", 0, 1300*ms, -1)    // enough for display, not for video's 2 s
	inViewFirstCase  = lifecycle("in-view-first", "i", "", 5*time.Second, 2*time.Second, -1)
	outFirstCase     = lifecycle("out-first", "j", "", 0, 1200*ms, 600*ms)
	// A 1.3 s gap on an impression whose served events come late: video
	// makes it impossible; display, the smaller format, makes it fine.
	lateVideoCase   = append(lifecycle("late-video", "m", "", 0, 1300*ms, -1)[1:], lcEvent("late-video", "m", "", beacon.EventServed, 0, 0, "video"))
	lateDisplayCase = append(lifecycle("late-display", "m", "", 0, 1300*ms, -1)[1:],
		lcEvent("late-display", "m", "", beacon.EventServed, 0, 0, "video"),
		lcEvent("late-display", "m", "", beacon.EventServed, 1, 0, "display"))
)

// lifecycleWant is every case's row with a violation, by
// "campaign/source"; every other row must have none.
var lifecycleWant = map[string]Violations{
	"orphan/qtag":          {NoServed: 1},
	"no-loaded/commercial": {NoLoaded: 1},
	"orphan-out/qtag":      {OrphanOutOfView: 1},
	"short-display/qtag":   {ImpossibleDwell: 1},
	"short-video/qtag":     {ImpossibleDwell: 1},
	"in-view-first/qtag":   {OutOfOrder: 1},
	"out-first/qtag":       {OutOfOrder: 1},
	"late-video/qtag":      {ImpossibleDwell: 1},
}

// lifecycleEvents is every case's events.
func lifecycleEvents() []beacon.Event {
	var out []beacon.Event
	for _, c := range [][]beacon.Event{cleanCase, orphanCase, noLoadedCase, orphanOutCase, shortDisplayCase,
		shortVideoCase, inViewFirstCase, outFirstCase, lateVideoCase, lateDisplayCase} {
		out = append(out, c...)
	}
	return out
}

// violationsOf maps each row of snap to its violations, by
// "campaign/source".
func violationsOf(snap Snapshot) map[string]*Violations {
	got := make(map[string]*Violations, len(snap.Rows))
	for _, r := range snap.Rows {
		got[r.CampaignID+"/"+r.Source] = r.Violations
	}
	return got
}

// checkViolations feeds events through a store into a detector, forward,
// reversed and in five shuffles, at one shard and at sixteen, and holds
// every row's Violations to want — a row it does not name to none — and
// every snapshot to the first.
func checkViolations(t *testing.T, events []beacon.Event, want map[string]Violations) {
	t.Helper()
	var first Snapshot
	for _, shards := range []int{1, 16} {
		for round := 0; round < 7; round++ {
			order := append([]beacon.Event(nil), events...)
			label := "forward"
			switch round {
			case 0:
			case 1:
				label = "reverse"
				for i, e := range events {
					order[len(events)-1-i] = e
				}
			default:
				label = fmt.Sprintf("shuffle %d", round)
				rng := simrand.New(uint64(round)).Fork("lifecycle")
				for i := len(order) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
			}
			d := New(Options{Shards: shards})
			store := beacon.NewStore()
			store.AddObserver(d.Observe)
			store.AddDupObserver(d.ObserveDup)
			for _, e := range order {
				if err := store.Submit(e); err != nil {
					t.Fatal(err)
				}
			}
			snap := d.Snapshot()
			got := violationsOf(snap)
			for key := range want {
				if _, ok := got[key]; !ok {
					t.Fatalf("shards %d, %s: no row %s", shards, label, key)
				}
			}
			for key, v := range got {
				w, ok := want[key]
				switch {
				case !ok && v != nil:
					t.Errorf("shards %d, %s: %s reports %s, want none", shards, label, key, v)
				case ok && (v == nil || *v != w):
					t.Errorf("shards %d, %s: %s reports %s, want %s", shards, label, key, v, &w)
				}
			}
			if shards == 1 && round == 0 {
				first = snap
			} else if !reflect.DeepEqual(snap, first) {
				t.Fatalf("shards %d, %s: snapshot differs from the forward order's\n got %+v\nwant %+v", shards, label, snap, first)
			}
		}
	}
}

// only is want narrowed to the rows of one campaign.
func only(campaign string) map[string]Violations {
	out := map[string]Violations{}
	for key, v := range lifecycleWant {
		if strings.HasPrefix(key, campaign+"/") {
			out[key] = v
		}
	}
	return out
}

func TestCleanStreamAuditsClean(t *testing.T) { checkViolations(t, cleanCase, only("clean")) }

func TestOrphanMeasurement(t *testing.T) { checkViolations(t, orphanCase, only("orphan")) }

func TestInViewWithoutLoaded(t *testing.T) { checkViolations(t, noLoadedCase, only("no-loaded")) }

func TestOutOfViewWithoutInView(t *testing.T) { checkViolations(t, orphanOutCase, only("orphan-out")) }

func TestImpossibleDwellCatchesSpoofedBeacons(t *testing.T) {
	checkViolations(t, shortDisplayCase, only("short-display"))
}

func TestVideoDwellUsed(t *testing.T) { checkViolations(t, shortVideoCase, only("short-video")) }

func TestOrderViolations(t *testing.T) {
	checkViolations(t, inViewFirstCase, only("in-view-first"))
	checkViolations(t, outFirstCase, only("out-first"))
}

// TestAllViolationClassesTogether runs every case as one stream, and
// then with the spill stream's impressions — none of which fits an open
// impression record — in it too.
func TestAllViolationClassesTogether(t *testing.T) {
	checkViolations(t, lifecycleEvents(), lifecycleWant)

	want := map[string]Violations{
		"c/qtag":       {NoServed: 2, NoLoaded: 2, OrphanOutOfView: 1, ImpossibleDwell: 2},
		"c/commercial": {NoServed: 1, NoLoaded: 1, OutOfOrder: 1},
	}
	for key, v := range lifecycleWant {
		want[key] = v
	}
	checkViolations(t, append(spillEvents(), lifecycleEvents()...), want)
}

// TestLateFormatRecountsImpossibleDwell walks one impression's gap
// through the format changes of late served events: a 1.3 s gap is
// possible for display (the default), impossible once a video served
// event arrives, and possible again once a display one does — whether
// the gap completes before the formats arrive or after.
func TestLateFormatRecountsImpossibleDwell(t *testing.T) {
	loaded := lcEvent("mig", "m", beacon.SourceQTag, beacon.EventLoaded, 0, 0, "")
	inView := lcEvent("mig", "m", beacon.SourceQTag, beacon.EventInView, 0, 1300*ms, "")
	video := lcEvent("mig", "m", "", beacon.EventServed, 0, 0, "video")
	display := lcEvent("mig", "m", "", beacon.EventServed, 1, 0, "display")
	for _, steps := range [][]struct {
		e    beacon.Event
		want int64
	}{
		{{loaded, 0}, {inView, 0}, {video, 1}, {display, 0}},
		{{video, 0}, {loaded, 0}, {inView, 1}, {display, 0}},
		{{inView, 0}, {video, 0}, {loaded, 1}, {display, 0}},
		{{display, 0}, {inView, 0}, {loaded, 0}, {video, 0}},
	} {
		d := New(Options{})
		for i, s := range steps {
			d.Observe(s.e)
			var got int64
			if v := violationsOf(d.Snapshot())["mig/qtag"]; v != nil {
				got = v.ImpossibleDwell
			}
			if got != s.want {
				t.Fatalf("after %s %s (step %d): impossible_dwell = %d, want %d", s.e.Type, s.e.Meta.Format, i, got, s.want)
			}
		}
	}
}

// TestGapClassesCoverTheStandard: for every format of the table, a gap
// one nanosecond short of its dwell less the tolerance is an impossible
// dwell and one that is not short is not — so each format's dwell is one
// of the two a gap's flag bits classify against. A format the standard
// does not name, or none, is display.
func TestGapClassesCoverTheStandard(t *testing.T) {
	const gapTolerance = 150 * time.Millisecond // the tag's sampling slack on a loaded→in-view gap
	dwells := map[string]time.Duration{
		"":       viewability.StandardCriteria(viewability.Display).Dwell,
		"banner": viewability.StandardCriteria(viewability.Display).Dwell,
	}
	for f := viewability.Format(0); int(f) < viewability.NumFormats; f++ {
		dwells[f.String()] = viewability.StandardCriteria(f).Dwell
	}
	for format, dwell := range dwells {
		for _, gap := range []time.Duration{dwell - gapTolerance - 1, dwell - gapTolerance} {
			d := New(Options{})
			for _, e := range lifecycle("g", "i", format, 0, gap, -1) {
				d.Observe(e)
			}
			want := gap+gapTolerance < dwell
			if got := d.Snapshot().Rows[1].Violations != nil; got != want {
				t.Errorf("%q: a %v gap against its %v dwell: impossible %v, want %v", format, gap, dwell, got, want)
			}
		}
	}
}

// TestViolationsString renders the nonzero classes in field order.
func TestViolationsString(t *testing.T) {
	v := &Violations{NoLoaded: 2, OutOfOrder: 1}
	if got := v.String(); got != "no_loaded=2 out_of_order=1" {
		t.Errorf("String = %q", got)
	}
	if got := (*Violations)(nil).String(); got != "-" {
		t.Errorf("nil String = %q", got)
	}
}
