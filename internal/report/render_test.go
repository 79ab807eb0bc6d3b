package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/simrand"
)

// stack is the server's observer wiring: a deduplicating store feeding
// the aggregator and (optionally) the detector on both hooks.
type stack struct {
	store *beacon.Store
	a     *aggregate.Aggregator
	d     *detect.Detector // nil: a report without a fraud section
}

func newStack(withDetect bool, dopts detect.Options) *stack {
	clock := func() time.Time { return rt0 }
	s := &stack{
		store: beacon.NewStore(),
		a:     aggregate.New(aggregate.Options{TTL: -1, Now: clock}),
	}
	s.store.AddObserver(s.a.Observe)
	if withDetect {
		dopts.TTL, dopts.Now = -1, clock
		s.d = detect.New(dopts)
		s.store.AddObserver(s.d.Observe)
		s.store.AddDupObserver(s.d.ObserveDup)
	}
	return s
}

func (s *stack) submit(evs ...beacon.Event) {
	for _, e := range evs {
		_ = s.store.Submit(e) // the events these tests build are valid
	}
}

// marshalled is the report as the handler produced it before it had an
// encoder of its own: snapshots of every section, handed to
// encoding/json. It is the definition of the payload.
func marshalled(t testing.TB, a *aggregate.Aggregator, d *detect.Detector, windows bool) []byte {
	t.Helper()
	ref := ViewabilityReport{
		GeneratedAt:     rt0,
		Campaigns:       a.Snapshot(),
		Slices:          a.Slices(),
		OpenImpressions: a.OpenImpressions(),
		Evicted:         a.Evicted(),
	}
	if windows {
		ref.Windows = a.Windows()
	}
	if d != nil {
		fraud := d.Snapshot()
		ref.Fraud = &fraud
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	return buf.Bytes()
}

// requireIdentical renders GET /report (with and without the rollup
// windows) from a quiescent stack through a new handler and requires,
// byte for byte, the marshalled snapshots of the same stack.
func requireIdentical(t testing.TB, a *aggregate.Aggregator, d *detect.Detector) {
	t.Helper()
	requireRenders(t, HandlerWithDetect(a, d, func() time.Time { return rt0 }), a, d)
}

// requireRenders is requireIdentical through h, whose earlier renders
// the two may copy from.
func requireRenders(t testing.TB, h http.Handler, a *aggregate.Aggregator, d *detect.Detector) {
	t.Helper()
	requireRender(t, h, "/report", a, d)
	requireRender(t, h, "/report?windows=0", a, d)
}

// requireRender renders url through h and requires the marshalled
// snapshots of the stack, with the rollup windows unless url drops them.
func requireRender(t testing.TB, h http.Handler, url string, a *aggregate.Aggregator, d *detect.Detector) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	got, want := rr.Body.Bytes(), marshalled(t, a, d, !strings.HasSuffix(url, "windows=0"))
	if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("%s: status %d, content-type %q", url, rr.Code, rr.Header().Get("Content-Type"))
	}
	if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", url, cl, len(got))
	}
	requireSameBytes(t, url, got, want)
}

// requireSameBytes fails with the first difference of got from want.
func requireSameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: rendered report differs from json.Marshal at byte %d (%d vs %d bytes)\n got: …%s\nwant: …%s",
			what, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}

// benchEvents draws events in the shape of the repository benchmark's
// generator (bench/gen.go): impressions over zipf(1.1)-ranked campaigns,
// each a served event, the tag's check-in, in-view with probability 0.6
// and then out-of-view with probability 0.5, over two formats, three ad
// sizes and forty slots, and over Table 2's two OSes × two site types,
// which follow the impression index so that every other value is drawn
// as it was before the slices joined the report.
func benchEvents(seed uint64, campaigns, n int) []beacon.Event {
	rng := simrand.New(seed).Fork("report-render")
	cdf := make([]float64, campaigns)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 1.1)
		cdf[k] = sum
	}
	formats := []string{"display", "video"}
	sizes := []string{"300x250", "320x50", "728x90"}
	base := time.Unix(1546300800, 0).UTC()
	events := make([]beacon.Event, 0, n+4)
	for imp := 0; len(events) < n; imp++ {
		at := base.Add(time.Duration(imp)*20*time.Millisecond + time.Duration(rng.Intn(20_000))*time.Microsecond)
		ev := beacon.Event{
			ImpressionID: "s" + strconv.FormatUint(seed, 36) + "-" + strconv.Itoa(imp),
			CampaignID:   "camp-" + strconv.Itoa(sort.SearchFloat64s(cdf, rng.Float64()*sum)+1),
			Type:         beacon.EventServed,
			At:           at,
			Meta: beacon.Meta{
				Format:   formats[rng.Intn(len(formats))],
				AdSize:   sizes[rng.Intn(len(sizes))],
				Slot:     "slot-" + strconv.Itoa(rng.Intn(40)),
				OS:       []string{"android", "ios"}[imp%2],
				SiteType: []string{"app", "browser"}[imp/2%2],
			},
		}
		events = append(events, ev)
		ev.Source, ev.Type = beacon.SourceQTag, beacon.EventLoaded
		ev.At = at.Add(time.Duration(200+rng.Intn(1300)) * time.Millisecond)
		events = append(events, ev)
		if rng.Bool(0.6) {
			ev.Type = beacon.EventInView
			ev.At = ev.At.Add(time.Duration(1000+rng.Intn(4000)) * time.Millisecond)
			events = append(events, ev)
			if rng.Bool(0.5) {
				ev.Type = beacon.EventOutOfView
				ev.At = ev.At.Add(time.Duration(rng.Exponential(4)*1000+150) * time.Millisecond)
				events = append(events, ev)
			}
		}
	}
	return events[:n]
}

// TestRenderIdenticalToMarshal pins "byte-identical" as a property of
// the stack's state rather than of one golden file: whatever the
// accumulators hold, the handler's bytes are encoding/json's.
func TestRenderIdenticalToMarshal(t *testing.T) {
	t.Run("golden stack", func(t *testing.T) {
		a, d := goldenStack(t)
		requireIdentical(t, a, d)
		requireIdentical(t, a, nil)
	})

	t.Run("empty", func(t *testing.T) {
		s := newStack(true, detect.Options{})
		requireIdentical(t, s.a, s.d) // "rows":null twice, no dwell, no windows, no flagged_campaigns
		requireIdentical(t, s.a, nil)
	})

	t.Run("row shapes", func(t *testing.T) {
		s := newStack(true, detect.Options{})
		at := rt0
		ev := func(imp, camp string, src beacon.Source, typ beacon.EventType, format string) beacon.Event {
			at = at.Add(time.Second)
			return beacon.Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, At: at, Meta: beacon.Meta{Format: format}}
		}
		s.submit(
			// A row with no format, and a third, literal solution beside the
			// canonical two: three keys to put in byte order.
			ev("n1", "camp-noformat", "", beacon.EventServed, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventLoaded, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventInView, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventOutOfView, ""),
			ev("n1", "camp-noformat", "aa-verifier", beacon.EventLoaded, ""),
			ev("n1", "camp-noformat", beacon.SourceCommercial, beacon.EventLoaded, ""),
			// Two impressions on video; m1 then migrates to banner (a smaller
			// format arrives late) and takes its third source with it — video
			// no longer lists x-verifier — and m3's migration empties "wide":
			// that row is deleted.
			ev("m1", "camp-migrate", "", beacon.EventServed, "video"),
			ev("m1", "camp-migrate", "x-verifier", beacon.EventLoaded, "video"),
			ev("m2", "camp-migrate", "", beacon.EventServed, "video"),
			ev("m2", "camp-migrate", beacon.SourceQTag, beacon.EventInView, "video"),
			ev("m1", "camp-migrate", "x-verifier", beacon.EventInView, "banner"),
			ev("m3", "camp-migrate", beacon.SourceQTag, beacon.EventLoaded, "wide"),
			ev("m3", "camp-migrate", "", beacon.EventServed, "banner"),
		)
		snap := s.a.Snapshot()
		if len(snap.Rows) != 3 || snap.Rows[0].Format != "banner" || snap.Rows[1].Format != "video" || snap.Rows[2].Format != "" {
			t.Fatalf("fixture did not produce banner, video and format-less rows: %+v", snap.Rows)
		}
		if _, ok := snap.Rows[1].Sources["x-verifier"]; ok {
			t.Fatalf("fixture's video row should not list x-verifier, which only m1 reported and m1 left: %+v", snap.Rows[1].Sources)
		}
		if len(snap.Rows[2].Sources) != 4 {
			t.Fatalf("fixture's format-less row should carry four sources: %+v", snap.Rows[2].Sources)
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("strings", func(t *testing.T) {
		s := newStack(true, detect.Options{MinEvents: 1})
		nasty := []string{
			`quote"back\slash`, "<script>&amp;</script>", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
			"bad\xff\xfeutf8\xc3", "line\u2028sep\u2029para", "ünï©ødé-日本語-🙂", "\xed\xa0\x80surrogate", "\u2029",
		}
		for i, c := range nasty {
			for j, other := range nasty {
				imp := "imp-" + strconv.Itoa(i) + "-" + strconv.Itoa(j)
				at := rt0.Add(time.Duration(i*len(nasty)+j) * time.Second)
				meta := beacon.Meta{Format: other, Slot: other, AdSize: "1x1"}
				s.submit(
					beacon.Event{ImpressionID: imp, CampaignID: c, Type: beacon.EventServed, At: at, Meta: meta},
					beacon.Event{ImpressionID: imp, CampaignID: c, Source: beacon.Source(other), Type: beacon.EventInView, At: at, Meta: meta},
					beacon.Event{ImpressionID: imp, CampaignID: c, Source: beacon.Source(other), Type: beacon.EventOutOfView, At: at.Add(time.Second), Meta: meta},
				)
			}
		}
		if len(s.d.Snapshot().Flagged) == 0 {
			t.Fatal("fixture should flag campaigns, so flagged_campaigns carries the strings too")
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("small floats", func(t *testing.T) {
		// A score a hair over a ramp's foot is < 1e-6, where encoding/json
		// switches to exponent form: 50 served events in one second
		// against a baseline of 50 − 1e-7.
		s := newStack(true, detect.Options{RateBaseline: 50 - 1e-7, RateMax: 250, BurstTolerance: 1e6, BurstMax: 1e7})
		for i := 0; i < 50; i++ {
			s.submit(beacon.Event{ImpressionID: "i" + strconv.Itoa(i), CampaignID: "camp-tiny", Type: beacon.EventServed, At: rt0})
		}
		if sc := s.d.Snapshot().Rows[0].Score; !(sc > 0 && sc < 1e-6) {
			t.Fatalf("fixture score = %g, want within (0, 1e-6)", sc)
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("bench shape", func(t *testing.T) {
		// The benchmark's report_under_ingest shape: the state is checked,
		// then re-checked through the same handler after each further slice
		// of ingest in which one event in seven is sent twice (the second
		// lands on the duplicate hook, which moves only fraud rows).
		s := newStack(true, detect.Options{})
		h := HandlerWithDetect(s.a, s.d, func() time.Time { return rt0 })
		events := benchEvents(1, 5000, 74_000)
		s.submit(events[:50_000]...)
		requireRenders(t, h, s.a, s.d)
		rest := events[50_000:]
		for len(rest) > 0 {
			slice := rest[:min(8_000, len(rest))]
			rest = rest[len(slice):]
			for i, e := range slice {
				s.submit(e)
				if i%7 == 0 {
					s.submit(e)
				}
			}
			requireRenders(t, h, s.a, s.d)
		}
		if got := s.d.DupEvents(); got == 0 {
			t.Fatal("re-sends never reached the duplicate hook")
		}
	})
}

// TestRenderCopiesOnlyUntouchedCampaigns: one handler polled between
// slices of ingest copies every campaign that no event touched since its
// last render from that render's body, and encodes the rest — and each
// body is still byte for byte the marshalled snapshots, whatever the
// slice changed: fresh events, dwell pairs, verbatim re-sends (which
// move only the detector's dups), a format migration that carries a
// third-party solution, MaxRows evictions (a victim's campaign loses a
// row no event of its own touched), new rollup windows, the windows
// across ?windows=0 polls, a render that finds the handler's buffers
// taken, and a render by another handler in between. At the end, a body
// scribbled on after its render shows in the next one: the renders
// above did copy.
func TestRenderCopiesOnlyUntouchedCampaigns(t *testing.T) {
	clock := rt0
	store := beacon.NewStore()
	a := aggregate.New(aggregate.Options{TTL: -1, Window: time.Minute, Now: func() time.Time { return clock }})
	d := detect.New(detect.Options{MaxRows: 64, MinEvents: 2})
	d.Join(a.Pass()) // as collector.Open wires them
	reg := obs.NewRegistry()
	d.RegisterMetrics(reg)
	store.AddObserver(a.Observe)
	store.AddDupObserver(d.ObserveDup)
	submit := func(evs ...beacon.Event) {
		for _, e := range evs {
			_ = store.Submit(e)
		}
	}
	at := func() time.Time { return rt0 }
	h, other := HandlerWithDetect(a, d, at), HandlerWithDetect(a, d, at)

	// render renders url through h and requires the marshalled snapshots;
	// w, if not nil, is handed the body as the handler writes it.
	render := func(step int, url string, w func([]byte)) {
		t.Helper()
		rw := &hookWriter{ResponseRecorder: httptest.NewRecorder(), onWrite: w}
		h.ServeHTTP(rw, httptest.NewRequest("GET", url, nil))
		requireSameBytes(t, fmt.Sprintf("step %d: %s", step, url), rw.Body.Bytes(), marshalled(t, a, d, url == "/report"))
	}
	migrate := func(step int) []beacon.Event {
		imp, camp := "mig-"+strconv.Itoa(step), "camp-"+strconv.Itoa(step%7+1)
		e := beacon.Event{ImpressionID: imp, CampaignID: camp, Type: beacon.EventServed, At: rt0, Meta: beacon.Meta{Format: "video"}}
		loaded := e
		loaded.Source, loaded.Type = "x-verifier", beacon.EventLoaded
		late := loaded
		late.Type, late.Meta.Format = beacon.EventInView, "banner" // smaller: the impression moves
		return []beacon.Event{e, loaded, late}
	}

	events := benchEvents(11, 40, 12_000)
	submit(events[:4_000]...)
	render(0, "/report", nil)
	render(0, "/report", nil) // nothing changed: all copied
	rest, prev := events[4_000:], []beacon.Event(nil)
	for step := 1; len(rest) > 0; step++ {
		slice := rest[:min(400, len(rest))]
		rest = rest[len(slice):]
		switch step % 4 {
		case 0:
			submit(prev...) // verbatim re-sends: the detector's dups only
		case 1:
			submit(slice...)
			submit(migrate(step)...)
		default:
			submit(slice...)
		}
		prev = slice
		if step%5 == 0 {
			clock = clock.Add(time.Minute) // the next events open a window
		}
		url := "/report"
		if step%3 == 2 {
			url = "/report?windows=0"
		}
		switch step % 6 {
		case 3:
			// A render that finds the slot taken: another poll arrives
			// while this one writes its body.
			render(step, url, func([]byte) { render(step, "/report", nil) })
		case 5:
			requireRender(t, other, "/report", a, d)
			fallthrough
		default:
			render(step, url, nil)
		}
	}
	if evicted := reg.Values()["qtag_detect_row_evicted_total"]; evicted == 0 || d.DupEvents() == 0 {
		t.Fatalf("fixture evicted %g score rows and re-sent %d events, want both", evicted, d.DupEvents())
	}
	var kept []byte
	render(-1, "/report", func(body []byte) { kept = body })
	for i := range kept {
		kept[i] = ' '
	}
	rr := get(t, h, "/report")
	if want := marshalled(t, a, d, true); bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatal("a render with nothing changed since the last one encoded the campaigns again instead of copying them")
	}
}

// hookWriter is a ResponseRecorder that hands the handler's body to
// onWrite before recording it.
type hookWriter struct {
	*httptest.ResponseRecorder
	onWrite func([]byte)
}

func (w *hookWriter) Write(p []byte) (int, error) {
	if w.onWrite != nil {
		w.onWrite(p)
	}
	return w.ResponseRecorder.Write(p)
}

// TestMigrationLeavesNoTrace: a late, smaller format moves an impression
// to another row, and the row it left lists what it would had the
// impression never been there — so the same events in either order give
// the same snapshot and the same /report bytes, a third-party solution
// that only the moved impression reported included.
func TestMigrationLeavesNoTrace(t *testing.T) {
	at := rt0
	ev := func(imp string, src beacon.Source, typ beacon.EventType, format string) beacon.Event {
		at = at.Add(time.Second)
		return beacon.Event{ImpressionID: imp, CampaignID: "camp-migrate", Source: src, Type: typ, At: at, Meta: beacon.Meta{Format: format}}
	}
	forward := []beacon.Event{
		ev("m1", "", beacon.EventServed, "video"),
		ev("m1", "x-verifier", beacon.EventLoaded, "video"),
		ev("m1", beacon.SourceQTag, beacon.EventLoaded, "video"),
		ev("m2", "", beacon.EventServed, "video"),
		ev("m2", beacon.SourceQTag, beacon.EventInView, "video"),
		ev("m1", "x-verifier", beacon.EventInView, "banner"),
	}
	reversed := make([]beacon.Event, len(forward))
	for i, e := range forward {
		reversed[len(forward)-1-i] = e
	}
	render := func(events []beacon.Event) (aggregate.Snapshot, []byte) {
		s := newStack(true, detect.Options{})
		s.submit(events...)
		rr := httptest.NewRecorder()
		HandlerWithDetect(s.a, s.d, func() time.Time { return rt0 }).ServeHTTP(rr, httptest.NewRequest("GET", "/report", nil))
		return s.a.Snapshot(), rr.Body.Bytes()
	}
	fwdSnap, fwdBody := render(forward)
	revSnap, revBody := render(reversed)
	if !reflect.DeepEqual(fwdSnap, revSnap) {
		t.Fatalf("snapshots differ with the order of the events\nforward:  %+v\nreversed: %+v", fwdSnap, revSnap)
	}
	if !bytes.Equal(fwdBody, revBody) {
		t.Fatalf("/report differs with the order of the events\nforward:  %s\nreversed: %s", fwdBody, revBody)
	}
	if _, listed := fwdSnap.Rows[1].Sources["x-verifier"]; fwdSnap.Rows[1].Format != "video" || listed {
		t.Fatalf("video row %+v should not list x-verifier", fwdSnap.Rows[1])
	}
}

// TestRenderUnderConcurrentIngest: a reader polling beside eight
// ingesting goroutines always receives a complete, decodable report with
// every list in strictly increasing key order (consistent per campaign),
// and once ingest stops the body is exactly the marshalled snapshot and
// each campaign directory holds exactly the campaigns with live rows.
// The evicting run caps the detector far below the campaigns' rows, so
// campaigns leave the fraud directory and come back while polls run.
// Run under -race this is also the proof that the encoders read nothing
// outside the locks that guard it.
func TestRenderUnderConcurrentIngest(t *testing.T) {
	for _, c := range []struct {
		name string
		opts detect.Options
	}{{"default", detect.Options{}}, {"evicting", detect.Options{MaxRows: 48}}} {
		t.Run(c.name, func(t *testing.T) { renderUnderIngest(t, c.opts) })
	}
}

func renderUnderIngest(t *testing.T, dopts detect.Options) {
	s := newStack(true, dopts)
	reg := obs.NewRegistry()
	s.d.RegisterMetrics(reg)
	h := HandlerWithDetect(s.a, s.d, func() time.Time { return rt0 })
	events := benchEvents(7, 300, 16_000)
	const writers = 8

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(events); i += writers {
				s.submit(events[i])
				if i%7 == 0 {
					s.submit(events[i])
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for polls := 0; ; polls++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/report", nil))
				var rep ViewabilityReport
				if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
					t.Errorf("poll %d: report does not decode: %v", polls, err)
					return
				}
				if rep.Fraud == nil {
					t.Errorf("poll %d: fraud section missing", polls)
					return
				}
				if err := keyOrderErr(rr.Body.Bytes(), &rep); err != nil {
					t.Errorf("poll %d: %v", polls, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	readers.Wait()
	<-done
	requireIdentical(t, s.a, s.d)
	requireDirectories(t, s.a, s.d)
	var rep ViewabilityReport
	if err := json.Unmarshal(get(t, h, "/report").Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if err := slicesSumErr(&rep); err != nil {
		t.Fatalf("after ingest: %v", err)
	}
	if evicted := reg.Values()["qtag_detect_row_evicted_total"]; (dopts.MaxRows > 0) != (evicted > 0) {
		t.Fatalf("MaxRows %d evicted %g score rows", dopts.MaxRows, evicted)
	}
}

// slicesSumErr reports a report whose slices do not sum to its rows —
// served, and per solution measured and viewed. A poll under ingest
// reads the rows campaign by campaign and the slices shard by shard, so
// it holds once ingest is quiet.
func slicesSumErr(rep *ViewabilityReport) error {
	var rows, cells aggregate.Counts
	for _, r := range rep.Campaigns.Rows {
		c := aggregate.Counts{Served: r.Served, Measured: map[beacon.Source]int64{}, Viewed: map[beacon.Source]int64{}}
		for src, sc := range r.Sources {
			c.Measured[beacon.Source(src)] = sc.Measured
			c.Viewed[beacon.Source(src)] = sc.Viewed
		}
		rows.Add(c)
	}
	for _, s := range rep.Slices {
		cells.Add(s.Counts)
	}
	if !reflect.DeepEqual(rows, cells) {
		return fmt.Errorf("slices sum to %+v, rows to %+v", cells, rows)
	}
	return nil
}

// keyOrderErr reports the first list of a rendered report that is not in
// strictly increasing key order: rows by (campaign, format), slices by
// (site type, OS), dwell and fraud rows by (campaign, source), flagged
// campaigns, windows by start, and each window's campaigns — whose order
// only the raw body keeps.
func keyOrderErr(body []byte, rep *ViewabilityReport) error {
	var keys [][2]string
	check := func(what string) error {
		for i := 1; i < len(keys); i++ {
			if a, b := keys[i-1], keys[i]; a[0] > b[0] || a[0] == b[0] && a[1] >= b[1] {
				return fmt.Errorf("%s out of key order: %q then %q", what, a, b)
			}
		}
		keys = keys[:0]
		return nil
	}
	for _, r := range rep.Campaigns.Rows {
		keys = append(keys, [2]string{r.CampaignID, r.Format})
	}
	if err := check("rows"); err != nil {
		return err
	}
	for _, c := range rep.Slices {
		keys = append(keys, [2]string{c.SiteType, c.OS})
	}
	if err := check("slices"); err != nil {
		return err
	}
	for _, d := range rep.Campaigns.Dwell {
		keys = append(keys, [2]string{d.CampaignID, d.Source})
	}
	if err := check("dwell rows"); err != nil {
		return err
	}
	for _, r := range rep.Fraud.Rows {
		keys = append(keys, [2]string{r.CampaignID, r.Source})
	}
	if err := check("fraud rows"); err != nil {
		return err
	}
	for _, id := range rep.Fraud.Flagged {
		keys = append(keys, [2]string{id})
	}
	if err := check("flagged campaigns"); err != nil {
		return err
	}
	var raw struct {
		Windows []struct {
			Start     string          `json:"start"`
			Campaigns json.RawMessage `json:"campaigns"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return err
	}
	for i, w := range raw.Windows {
		if i > 0 && !rep.Windows[i-1].Start.Before(rep.Windows[i].Start) {
			return fmt.Errorf("windows out of order: %s then %s", raw.Windows[i-1].Start, w.Start)
		}
		dec := json.NewDecoder(bytes.NewReader(w.Campaigns))
		if _, err := dec.Token(); err != nil { // {
			return err
		}
		for dec.More() {
			id, err := dec.Token()
			var counts json.RawMessage
			if err == nil {
				err = dec.Decode(&counts)
			}
			if err != nil {
				return err
			}
			keys = append(keys, [2]string{id.(string)})
		}
		if err := check("window " + w.Start + "'s campaigns"); err != nil {
			return err
		}
	}
	return nil
}

// requireDirectories requires each campaign directory of a quiescent
// stack to hold exactly the campaigns with live rows, in order: nothing
// a campaign that left behind, nothing missing.
func requireDirectories(t *testing.T, a *aggregate.Aggregator, d *detect.Detector) {
	t.Helper()
	var want []string
	for _, r := range a.Snapshot().Rows {
		want = append(want, r.CampaignID)
	}
	if got := a.CampaignIDs(); !slices.Equal(got, slices.Compact(want)) {
		t.Fatalf("aggregate directory holds %d campaigns, the rows %d", len(got), len(slices.Compact(want)))
	}
	want = want[:0]
	for _, r := range d.Snapshot().Rows {
		want = append(want, r.CampaignID)
	}
	if got := d.CampaignIDs(); !slices.Equal(got, slices.Compact(want)) {
		t.Fatalf("detect directory holds %d campaigns, the live rows %d", len(got), len(slices.Compact(want)))
	}
}

// TestHandlerNilDetectorHasNoFraudKey: report.Handler(a, nil) serves
// the pre-detect schema — no "fraud" key at all, not a null one.
func TestHandlerNilDetectorHasNoFraudKey(t *testing.T) {
	body := get(t, Handler(reportAgg(t), nil), "/report").Body.Bytes()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := fields["fraud"]; ok {
		t.Fatalf("nil detector served a fraud key: %s", body)
	}
	for _, want := range []string{"generated_at", "campaigns", "open_impressions", "evicted_impression_states", "windows"} {
		if _, ok := fields[want]; !ok {
			t.Errorf("report lacks %q: %s", want, body)
		}
	}
}

// TestHandlerSpanAttributes: behind obs.TraceMiddleware the request's
// span carries the report's shape.
func TestHandlerSpanAttributes(t *testing.T) {
	a, d := goldenStack(t)
	spans := obs.NewSpanStore(16)
	tracer := obs.NewTracer(obs.TracerConfig{Node: "test", SampleRate: 1, Store: spans})
	h := obs.TraceMiddleware(tracer, "report", HandlerWithDetect(a, d, nil))
	if rr := get(t, h, "/report"); rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	recs := spans.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("spans = %+v", recs)
	}
	snap, fraud := a.Snapshot(), d.Snapshot()
	for key, want := range map[string]int{
		"report.campaign_rows":     len(snap.Rows),
		"report.open_impressions":  a.OpenImpressions(),
		"report.flagged_campaigns": len(fraud.Flagged),
	} {
		if got := recs[0].Attr(key); got != strconv.Itoa(want) || want == 0 {
			t.Errorf("span attr %s = %q, want %d (non-zero)", key, got, want)
		}
	}
}

// TestRenderAllocBudget: a render is a handful of allocations (the
// recorder, the headers, the window spans, growth of a cold pool
// entry), whatever the number of campaigns. Before the encoder it was
// one map per row and per score row plus two slices per histogram — five
// figures at this size — so a return to per-row structures fails here
// rather than in a benchmark.
func TestRenderAllocBudget(t *testing.T) {
	s := newStack(true, detect.Options{})
	s.submit(benchEvents(3, 500, 20_000)...)
	h := HandlerWithDetect(s.a, s.d, nil)
	req := httptest.NewRequest("GET", "/report", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm the pool
	allocs := testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	if rows := len(s.a.Snapshot().Rows); rows < 500 {
		t.Fatalf("fixture has %d rows, want the 500-campaign shape", rows)
	}
	if allocs > 64 {
		t.Fatalf("GET /report = %.0f allocs per render, budget 64", allocs)
	}
	t.Logf("GET /report: %.0f allocs per render, %d bytes", allocs, w.n)
}

// TestRenderKeepsItsBuffersAcrossCollections: a render after the
// collector has run still reuses the last renders' bodies and arenas. A
// sync.Pool drops them within two collections, and a polled /report then
// re-grows megabytes per collection at 5 000 campaigns. It warms up with
// two renders: the first grows one body, the second the other.
func TestRenderKeepsItsBuffersAcrossCollections(t *testing.T) {
	s := newStack(true, detect.Options{})
	s.submit(benchEvents(3, 500, 20_000)...)
	h := HandlerWithDetect(s.a, s.d, nil)
	req := httptest.NewRequest("GET", "/report", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	h.ServeHTTP(w, req)
	var before, after runtime.MemStats
	for i := range 3 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(w.n)/4 {
			t.Fatalf("render %d after two collections allocated %d bytes for a %d-byte body: the last render's buffers were not kept", i, got, w.n)
		}
	}
}

// discardWriter is a ResponseWriter that counts and drops the body, so
// allocation figures are the handler's alone.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }

// BenchmarkReportRender5000 is GET /report at the shape of the
// benchmark's report_under_ingest workload: 400 k events over 5 000
// zipf-ranked campaigns with a detector attached. Nothing is ingested
// between its renders, so every campaign is copied from the previous
// body: it times the copy path only (BenchmarkReportRenderUnderIngest
// times a poll beside ingest).
func BenchmarkReportRender5000(b *testing.B) { benchmarkRender(b, 5000, 400_000, 0) }

// BenchmarkReportRender99 is the same at the 99 campaigns of the
// benchmark's other workloads, whose quiescent reads it models.
func BenchmarkReportRender99(b *testing.B) { benchmarkRender(b, 99, 100_000, 0) }

// BenchmarkReportRenderUnderIngest is BenchmarkReportRender5000 with
// 1 920 fresh events submitted, the timer stopped, before each render:
// what report_under_ingest ingests between two polls (9 600 events/s,
// one poll per 200 ms), so that each render encodes the campaigns those
// events touched and copies the rest. CHANGES.md quotes it for the
// parent and for the copying render.
func BenchmarkReportRenderUnderIngest(b *testing.B) { benchmarkRender(b, 5000, 400_000, 1920) }

func benchmarkRender(b *testing.B, campaigns, events, fresh int) {
	s := newStack(true, detect.Options{})
	s.submit(benchEvents(1, campaigns, events)...)
	h := HandlerWithDetect(s.a, s.d, nil)
	req := httptest.NewRequest("GET", "/report", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // one render grows each body
	h.ServeHTTP(w, req)
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh > 0 {
			b.StopTimer()
			s.submit(benchEvents(uint64(i)+2, campaigns, fresh)...) // seeds name their impressions apart
			b.StartTimer()
		}
		h.ServeHTTP(w, req)
	}
}
